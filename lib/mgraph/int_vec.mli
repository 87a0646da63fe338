(** Growable int arrays: the multigraph builder's edge lists and the
    snapshot decoder's CSR pools. *)

type t = {
  mutable a : int array;  (** storage; cells [0 .. len-1] are in use *)
  mutable len : int;
}

val create : int -> t
(** An empty vector with room for [max 16 cap] elements. *)

val push : t -> int -> unit
(** Append, doubling the storage when full. *)

val contents : t -> int array
(** A fresh array of the [len] elements in use. *)

(** Axis-parallel k-dimensional integer rectangles.

    A rectangle is a pair of corners [lo ≤ hi] (componentwise). *)

type t = { lo : int array; hi : int array }

val make : lo:int array -> hi:int array -> t
(** @raise Invalid_argument when dimensions differ or [lo > hi]
    somewhere. *)

val dims : t -> int
val contains : t -> t -> bool
(** [contains outer inner]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

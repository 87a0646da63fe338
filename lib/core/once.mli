(** A value computed at most once, safe to force from several domains.

    OCaml 5's [Lazy.t] is not: two domains forcing the same suspension
    at once make one of them raise [CamlinternalLazy.Undefined]. Here
    the first forcer runs the computation under a mutex while the others
    wait; once set, reading the value takes one atomic load. *)

type 'a t

val make : (unit -> 'a) -> 'a t

val force : 'a t -> 'a
(** The value, computing it on first use. If the computation raises,
    the exception propagates and the next [force] retries. *)

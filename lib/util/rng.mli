(** Deterministic pseudo-random numbers (splitmix64).

    The fault-injection campaigns of the paper repeat 10 000 random trials;
    using our own generator (instead of [Stdlib.Random]) guarantees the
    experiments are reproducible bit-for-bit across OCaml releases. *)

type t
(** The splitmix64 state: the 8 bytes of one [int64], read and written in
    place, so that a draw allocates nothing ([int], [bits53] and [bool]
    return immediates; [float] boxes only its result). *)

val create : int -> t
(** [create seed] is a fresh generator; equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound): power-of-two bounds mask the
    top bits of one draw, other bounds use explicit threshold rejection
    (draws in the final partial block below 2^62 are discarded), so there
    is no modulo bias even for bounds adversarially close to [max_int].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val bits53 : t -> int
(** [bits53 t] is the 53 high bits of one draw, uniform in [0, 2^53). *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x): it is
    [x *. (float_of_int (bits53 t) /. 9007199254740992.0)], so a caller
    in another module can form the same value from [bits53] without the
    boxed float that a cross-module call returns. *)

val split : t -> t
(** [split t] derives an independent generator (advances [t]). *)

val mix : int -> int -> int
(** [mix seed i] hashes a (seed, stream-index) pair into a well-mixed seed
    (stateless splitmix64 finaliser).  [create (mix seed i)] is the
    counter-based stream [i] of [seed]: a pure function of its inputs, so
    work sharded across domains draws identical randomness no matter which
    worker runs stream [i]. *)

val derive : int -> int -> t
(** [derive seed i] is [create (mix seed i)]. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of [a].
    @raise Invalid_argument if [a] is empty. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [0, n), in arbitrary order.
    @raise Invalid_argument if [k > n] or [k < 0]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

(** Growable arrays.

    A tiny dynamic-array implementation (OCaml 5.1 predates [Dynarray] in the
    standard library).  Elements are stored contiguously; [push] is amortised
    O(1).  Indices are 0-based and bounds-checked. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is a fresh empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] whose cells all contain [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at the end of [v]. *)

val pop : 'a t -> 'a
(** [pop v] removes and returns the last element.
    @raise Invalid_argument if [v] is empty. *)

val get : 'a t -> int -> 'a
(** [get v i] is the [i]th element.
    @raise Invalid_argument if [i] is out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]th element with [x].
    @raise Invalid_argument if [i] is out of bounds. *)

val last : 'a t -> 'a
(** [last v] is the most recently pushed element.
    @raise Invalid_argument if [v] is empty. *)

val clear : 'a t -> unit
(** [clear v] removes all elements (capacity is retained). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val map : ('a -> 'b) -> 'a t -> 'b t

val exists : ('a -> bool) -> 'a t -> bool

val to_array : 'a t -> 'a array
(** [to_array v] is a fresh array with the elements of [v] in order. *)

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val copy : 'a t -> 'a t

(** Growable arrays.

    OCaml 5.1 does not ship [Dynarray]; this is the small subset the
    simulator needs. Elements are stored densely in [0, length) and the
    backing array doubles on demand. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] raises [Invalid_argument] when [i] is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at index [length v]. Amortised O(1). *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, or [None] if empty. *)

val pop_last : 'a t -> 'a
(** [pop_last v] removes and returns the last element without allocating
    an option, for array-backed worklists. Raises [Invalid_argument] if
    [v] is empty. *)

val clear : 'a t -> unit
(** [clear v] resets the length to 0. Keeps the backing storage. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** [filter_in_place p v] keeps only the elements satisfying [p],
    preserving order. *)

val shrink_to_fit : 'a t -> unit
(** [shrink_to_fit v] reallocates the backing array to exactly [length v]
    elements. [clear] and [filter_in_place] keep the old storage, so the
    slack still references dropped elements and keeps them reachable;
    call this after bulk removals (e.g. a GC sweep) to release them. *)

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] by moving the last element into
    its slot. O(1), does not preserve order. *)

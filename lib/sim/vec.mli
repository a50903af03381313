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

val view : 'a t -> 'a array
(** [view v] is the backing array itself, for index loops that must not
    pay a call per element: positions [0, length v) are the vector's
    elements and the rest is slack. Reads are unchecked against
    [length]. The view is valid only until the next [push], which may
    replace the backing array; [set], [truncate] and [clear] keep it. *)

val truncate : 'a t -> int -> unit
(** [truncate v n] drops every element from index [n] on, keeping the
    backing storage. Raises [Invalid_argument] unless
    [0 <= n <= length v]. *)

val release_slack : 'a t -> unit
(** [release_slack v] makes the backing array's slack reference only
    elements still in the vector: it overwrites every slot past
    [length v] with the last element, or releases the storage when [v]
    is empty. [clear], [truncate] and [filter_in_place] keep the old
    storage, whose slack still references the dropped elements and keeps
    them reachable; call this after bulk removals (e.g. a GC sweep). It
    allocates nothing. *)

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] by moving the last element into
    its slot. O(1), does not preserve order. *)

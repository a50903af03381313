(** H1 card table with an object-start index.

    One dirty bit per fixed-size card covering the old generation's address
    space, as in vanilla Parallel Scavenge (512 B cards). The post-write
    barrier marks the card holding an updated old-generation object; minor
    GC scans dirty cards for old-to-young references.

    The remembered-set index rests on one invariant of the heap: the
    old generation's object vector ([H1_heap.old_objs]) is strictly
    address-sorted — bump allocation appends at the top, and sliding
    compaction keeps the order. So the objects starting on one card are
    a contiguous run of that vector, and the table keeps, HotSpot
    object-start style, one [int] per card: the vector position of the
    card's first object ({!start_index}). Card [c]'s objects are
    positions [start_index c] to [start_index (c + 1) - 1], and the
    minor-GC card scan visits only the dirty cards' runs instead of
    sweeping the whole old generation. The index is fed in address order
    ({!note_object_start}) and grows on demand. Dirtiness and membership
    are orthogonal: {!clear_all} clears dirty bits only, {!reset_index}
    empties the index.

    The dirty bytes are sized on first use: {!num_cards} is the logical
    size, fixed at creation, while the bytes cover only a prefix that
    doubles when {!mark_dirty} reaches past it. A card beyond the prefix
    reads clean, so the prefix is unobservable except in host memory. *)

type t

val create : ?card_size:int -> capacity_bytes:int -> unit -> t
(** [card_size] defaults to 512 bytes. *)

val card_size : t -> int

val num_cards : t -> int
(** The logical card count, however much of the table is covered. *)

val card_of_addr : t -> int -> int
(** Raises [Invalid_argument] for an address outside the table. *)

val mark_dirty : t -> addr:int -> unit

val is_dirty : t -> card:int -> bool

val dirty_count : t -> int

val clear_all : t -> unit

val clear_card : t -> card:int -> unit

(** {1 Object-start index} *)

val note_object_start : t -> addr:int -> unit
(** Append the next old-generation object, which starts at [addr], to the
    index; its position is {!indexed_objects} before the call. Objects
    must be noted in address order: an address on a card before the last
    noted object's raises [Invalid_argument]. Addresses past the table's
    capacity (transiently possible during major-GC precompaction) are
    indexed too. *)

val reset_index : t -> unit
(** Empty the index. O(1): no entry is cleared. *)

val indexed_objects : t -> int
(** Objects noted since the last {!reset_index}. *)

val start_index : t -> card:int -> int
(** Position of the first indexed object starting on [card] or later:
    [0] for negative cards, {!indexed_objects} past the last indexed
    card. The objects of [card] are the positions from [start_index card]
    up to, excluding, [start_index (card + 1)]. *)

val iter_dirty_ranges : t -> (int -> int -> int -> unit) -> unit
(** [iter_dirty_ranges t f] calls [f card lo hi] for every dirty card
    owning objects, in ascending card order, where [lo, hi) is the card's
    position range. The callback must not change card dirtiness. *)

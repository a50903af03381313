(** Simulated Java objects.

    An object is a node of a mutable reference graph with a size in bytes, a
    location (which simulated space holds it), and the extra 8-byte header
    word TeraHeap adds for the H2 label (§3.2). Reference stores go through
    the runtime's write barrier ({!Th_minijvm}); this module only holds
    state and raw graph edits. *)

type kind =
  | Data  (** ordinary framework data *)
  | Array_data  (** large backing arrays; G1 humongous candidates *)
  | Jvm_metadata
      (** class objects / class loader — excluded from H2 closures (§3.2) *)
  | Weak_reference
      (** [java.lang.ref.Reference] subclasses — excluded from H2 closures *)
  | Temp  (** serializer temporaries and other short-lived garbage *)

type location =
  | Eden
  | Survivor
  | Old  (** address in [addr] *)
  | In_h2  (** region in [h2_region], address in [addr] *)
  | Freed  (** reclaimed by the simulated collector; access is a bug *)

type t = {
  id : int;
  kind : kind;
  size : int;  (** bytes, including the header *)
  mutable refs : t array;
  mutable nrefs : int;
  mutable loc : location;
  mutable addr : int;  (** byte offset in old gen or within its H2 region *)
  mutable h2_region : int;  (** region index, or -1 *)
  mutable label : int;  (** TeraHeap label header word, or -1 *)
  mutable site : int;
      (** allocation site of the tag that labelled this object (an
          identifier stable across runs of the same workload), or -1;
          placement policies key lifetime profiles on it *)
  mutable age : int;  (** minor GCs survived *)
  mutable mark : int;  (** liveness mark epoch *)
  mutable closure_mark : int;  (** H2-candidate tag epoch *)
  mutable new_addr : int;  (** forwarding address set by precompaction *)
  mutable root_pin : int;  (** times registered as a GC root *)
  mutable region_slack : int;
      (** unusable space pinned by this object under region-based
          allocators: the tail of a G1 humongous region (§7.1) *)
}

val header_bytes : int
(** Vanilla object header size (16 B: mark word + klass pointer). *)

val label_word_bytes : int
(** TeraHeap's extra header field (8 B, §3.2). *)

val create : ?kind:kind -> id:int -> size:int -> unit -> t
(** A fresh object located in [Eden] with no references. [size] is the
    payload size; the header is added on top. *)

val total_size : t -> int
(** Payload plus headers. *)

val footprint : t -> int
(** [total_size] plus {!field-region_slack}: the heap space the object
    actually pins. *)

val add_ref : t -> t -> unit
(** [add_ref parent child] appends an outgoing reference. Raw edit — the
    runtime write barrier must be invoked separately. *)

val set_ref : t -> int -> t -> unit
(** [set_ref parent i child] overwrites reference slot [i]. *)

val remove_ref : t -> t -> unit
(** Remove the first reference to the given child, if any. *)

val clear_refs : t -> unit

val iter_refs : (t -> unit) -> t -> unit

val ref_count : t -> int

val refs_list : t -> t list

val is_young : t -> bool

val has_young_ref : t -> bool
(** Whether any reference of the object points to an [Eden] or
    [Survivor] object. Allocates nothing. *)

val is_in_h1 : t -> bool

val is_freed : t -> bool

val excluded_from_closure : t -> bool
(** True for JVM metadata and [Reference]-inheriting objects (§3.2). *)

val reachable : roots:t list -> fence_h2:bool -> (int, t) Hashtbl.t
(** Oracle reachability: all objects reachable from [roots]. With
    [fence_h2], traversal does not continue through objects living in H2
    (mirrors the collector's fencing). Used by tests as ground truth. *)

val pp : Format.formatter -> t -> unit

(** The second, high-capacity heap (H2) — the paper's core contribution.

    H2 is a region-based heap memory-mapped over a fast storage device
    (Figure 1). Objects enter H2 only during major GC, grouped by the label
    of the root key-object whose transitive closure they belong to (§3.2).
    Regions are reclaimed lazily and in bulk: no object is ever scanned or
    compacted on the device (§3.3). Liveness is region-grained, driven by
    forward references (H1 to H2) and per-region dependency lists for
    cross-region references. Backward references (H2 to H1) are tracked by
    the 4-state {!H2_card_table}. *)

exception Out_of_h2_space

type reclaim_mode =
  | Dependency_lists  (** per-region directed dependency lists (§3.3) *)
  | Region_groups
      (** the simpler Union-Find alternative the paper evaluates and
          rejects: direction-blind region groups *)

type placement_policy =
  | Label_only  (** the paper's placement: one open region per label *)
  | Size_segregated
      (** §7.3 future work: large objects get their own regions per label
          so a few big dead arrays cannot pin regions full of small live
          objects (the BFS/SSSP space-waste pattern of Figure 10) *)

type config = {
  region_size : int;
  capacity : int;
  card_segment_size : int;
  stripe_aligned : bool;
  reclaim_mode : reclaim_mode;
  placement : placement_policy;
  promotion_buffer_bytes : int;  (** batched async-I/O buffer (2 MiB) *)
  high_threshold : float;
      (** H1 live-occupancy fraction that forces moving marked objects at
          the next major GC even without an [h2_move] hint (0.85) *)
  low_threshold : float option;
      (** when set, threshold-forced moves stop once H1 usage drops below
          this fraction (§7.2 uses 0.50); [None] moves everything marked *)
  dynamic_thresholds : bool;
      (** adapt the low threshold at run time (§7.2 future work); see
          {!adapt_thresholds} *)
  use_move_hint : bool;
      (** honour [h2_move]; when false, only the threshold mechanism
          triggers moves (the "NH" configuration of Figure 9a) *)
  huge_pages : bool;  (** 2 MiB mmap granularity for streaming workloads *)
}

val default_config : config
(** 4 MiB regions (paper: 256 MiB, scaled), 256 MiB H2, 4 KiB card
    segments, dependency lists, 2 MiB promotion buffers, thresholds
    0.85 / Some 0.5, hints enabled. *)

type region_sample = {
  live_object_pct : float;
  live_space_pct : float;
}
(** One Figure-10 data point: share of a region's objects (and bytes) that
    were still live when the region was sampled (0 for reclaimed regions). *)

type stats = {
  regions_allocated : int;  (** cumulative regions ever opened *)
  regions_reclaimed : int;
  regions_active : int;
  used_bytes : int;
  wasted_bytes : int;  (** allocated-region space not covered by objects *)
  dep_nodes : int;  (** total dependency-list nodes in DRAM *)
  moves_to_h2 : int;  (** objects moved H1 -> H2 so far *)
  bytes_moved : int;
  readback_bytes : int;
      (** bytes of H2 residents the mutator read back after placement
          (object granularity, cache hit or miss) — the traffic
          placement policies compete on *)
  rmw_bytes : int;
      (** bytes of H2 residents the mutator updated in place
          (read-modify-write, §7.2) *)
  minor_scan_time_ns : float;
      (** cumulative minor-GC time spent scanning H2 cards and objects *)
  degraded_moves : int;
      (** compaction phases that hit [Out_of_h2_space] and fell back to
          leaving the remaining tagged objects in H1 *)
  objects_deferred : int;
      (** marked objects left in H1 by those degraded compactions; they
          are retried at the next major GC *)
  flush_deferrals : int;
      (** promotion-buffer flushes whose device write exhausted its fault
          retries; the batch stays staged and is re-flushed later *)
}

type t

val create :
  config:config ->
  clock:Th_sim.Clock.t ->
  costs:Th_sim.Costs.t ->
  device:Th_device.Device.t ->
  dr2_bytes:int ->
  unit ->
  t
(** [dr2_bytes] is the DRAM the system devotes to the kernel page cache in
    front of the H2 device (the paper's DR2). *)

val config : t -> config

val card_table : t -> H2_card_table.t

val page_cache : t -> Th_device.Page_cache.t

(** {1 Hint-based interface (§3.2)} *)

val h2_tag_root :
  t -> ?site:int -> Th_objmodel.Heap_object.t -> label:int -> unit
(** Tag a root key-object for movement to H2 under [label]; sets the
    object's header label word. [site] (default [label]) names the
    allocation site for lifetime-profiling policies; it must be stable
    across runs of the same workload. *)

val h2_move : t -> label:int -> unit
(** Advise moving all objects tagged [label] to H2 during the next major
    GC. Ignored when [use_move_hint] is false. *)

val move_advised : t -> label:int -> bool

val clear_move_advice : t -> label:int -> unit
(** Called by the collector once the labelled objects have moved. *)

val prune_tagged : t -> unit
(** Drop the tagged roots that have since moved to H2 or been freed, and
    release the list's slack. Pruning early changes nothing observable
    (the dropped states are final); the major GC calls it once its frees
    are done, so the list keeps no freed object reachable. *)

val tagged_roots : t -> Th_objmodel.Heap_object.t list
(** Root key-objects tagged but not yet moved, freshest last. *)

val retag_deferred : t -> Th_objmodel.Heap_object.t -> unit
(** Put a labelled object a degraded compaction left in H1 back on the
    tagged list, so the next major GC retries moving it even when its
    original root has already moved to H2. The caller must ensure the
    object is not already listed. *)

(** {1 Allocation (major-GC compaction phase)} *)

val alloc : t -> ?group:int -> Th_objmodel.Heap_object.t -> label:int -> unit
(** Place an object in the open region of [label] (opening a new region if
    needed), set its location, and stage its bytes in the region's
    promotion buffer. Objects never span regions. [group] (default
    [label]) overrides the allocator bucket: placement policies that
    co-locate several labels in one region pass a shared group key.
    Raises {!Out_of_h2_space} when no region is available, and
    [Invalid_argument] if the object exceeds the region size. *)

val flush_promotion_buffers : t -> unit
(** Drain all promotion buffers with batched sequential device writes,
    charged to major-GC time (the compaction phase's device I/O). A write
    that exhausts its fault retries leaves the batch staged in DRAM
    (counted in [flush_deferrals]) to be retried at the next flush — the
    placed objects are unaffected. *)

val note_move_degraded : t -> objects:int -> unit
(** Called by the collector when compaction ran out of H2 space and left
    [objects] marked objects behind in H1: records the degraded-mode
    event here and on the device's fault injector, if any. *)

(** {1 Liveness and reclamation (§3.3)} *)

val clear_live_bits : t -> unit
(** Start of the major-GC marking phase. *)

val mark_live_from_h1 : t -> Th_objmodel.Heap_object.t -> unit
(** Record a forward reference (H1 to H2) to the given H2 object: sets the
    region's live bit and recursively the live bits of the regions on its
    dependency list ([Dependency_lists] mode), or marks the region's group
    live ([Region_groups] mode). *)

val region_is_live : t -> region:int -> bool

val add_dependency : t -> src_region:int -> dst_region:int -> unit
(** Record a cross-region reference; deduplicated. In [Region_groups]
    mode, merges the two regions' groups instead. *)

val note_backward_ref : t -> Th_objmodel.Heap_object.t -> unit
(** The given H2 object references an H1 object: mark its card dirty. *)

val free_dead_regions :
  t -> on_free:(Th_objmodel.Heap_object.t -> unit) -> int
(** Reclaim every region whose live bit (or group, in [Region_groups]
    mode) is unset: reset the allocation pointer, delete the dependency
    list, clear its cards, and drop its page-cache pages without
    writeback. [on_free] runs on each object of a reclaimed region.
    Returns the number of regions freed. *)

(** {1 Mutator access (memory-mapped loads and stores)} *)

val mutator_read : t -> Th_objmodel.Heap_object.t -> unit
(** Charge a load of the object through the page cache (page faults land
    in "other" time, §6). *)

val mutator_write : t -> Th_objmodel.Heap_object.t -> unit
(** Charge a store: page-cache write plus a dirty card (post-write
    barrier). This is the read-modify-write device traffic that makes
    moving still-mutable objects to H2 expensive (§7.2). *)

(** {1 Card scanning (GC)} *)

val scan_cards_minor : t -> on_object:(Th_objmodel.Heap_object.t -> unit) -> unit
(** Scan [Dirty] and [Young_gen] segments: charge card-scan and
    object-scan costs, fault segment pages, and invoke [on_object] on each
    object overlapping a scanned segment. *)

val scan_cards_major : t -> on_object:(Th_objmodel.Heap_object.t -> unit) -> unit
(** Same, additionally scanning [Old_gen] segments. *)

val minor_scan_ns : t -> float
(** Cumulative simulated time of minor-GC H2 card scanning (Figure 11a's
    "minor GC time in H2"). *)

val high_threshold : t -> float
(** Current high threshold (equal to the configured one unless
    [dynamic_thresholds] has adapted the pair). *)

val low_threshold : t -> float option

val adapt_thresholds : t -> live_ratio:float -> unit
(** Adaptive threshold controller (§7.2 future work), called by the
    collector at the end of each major GC with the post-collection H1
    live-occupancy ratio: sustained pressure lowers the low threshold
    (move more per cycle); comfortable headroom raises it (spare mutable
    objects the device read-modify-writes). No-op unless
    [dynamic_thresholds] is set. *)

val recompute_card_states : t -> major:bool -> unit
(** After the collector has moved H1 objects, downgrade scanned segments
    to [Young_gen], [Old_gen] or [Clean] according to the current
    locations of the objects they reference. Minor GC recomputes [Dirty]
    and [Young_gen] segments; major GC recomputes all non-clean ones. *)

(** {1 Introspection} *)

val device : t -> Th_device.Device.t

val free_region_list : t -> int list
(** Indices of reclaimed regions awaiting reuse. *)

val label_of_region : t -> region:int -> int
(** The region's label, or -1 if it is free. *)

val in_same_group : t -> a:int -> b:int -> bool
(** Whether two regions share a Union-Find group ([Region_groups] mode). *)

(** {2 Per-region metadata by index}

    Read-only access for external invariant checking ({!Th_verify}),
    without building a record per region. *)

val opened_regions : t -> int
(** Regions ever opened: indices [0] to [opened_regions t - 1], free ones
    included. *)

val region_top : t -> region:int -> int
(** The region's allocation pointer (0 once reclaimed). *)

val region_live : t -> region:int -> bool

val region_deps : t -> region:int -> int list
(** Regions this region's objects reference ([Dependency_lists] mode). *)

val region_objects : t -> region:int -> Th_objmodel.Heap_object.t Th_sim.Vec.t
(** The region's address-ordered object vector: the live backing store,
    which callers must not mutate. *)

val debug_remove_dependency : t -> src_region:int -> dst_region:int -> unit
(** Test-only corruption plant: silently drop a dependency edge so the
    sanitizer's mutation tests can verify it is detected. *)

val stats : t -> stats

val used_bytes : t -> int

val iter_objects : t -> (Th_objmodel.Heap_object.t -> unit) -> unit

val metadata_bytes : t -> int
(** Current DRAM metadata: card table + per-region metadata + dependency
    nodes. *)

val metadata_bytes_per_tb : region_size:int -> int
(** Analytic Table-5 model: DRAM metadata per TB of H2 for a given region
    size, assuming the paper's average of 10 dependency nodes per region. *)

val harvest_region_samples :
  t -> is_live:(Th_objmodel.Heap_object.t -> bool) -> region_sample list
(** Figure-10 data: samples recorded for regions reclaimed during the run
    (0 % live) plus a snapshot of every active region under the supplied
    liveness oracle. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Device = Th_device.Device
module Io_retry = Th_device.Io_retry
module Page_cache = Th_device.Page_cache

exception Out_of_h2_space

type reclaim_mode = Dependency_lists | Region_groups

type placement_policy = Label_only | Size_segregated

type config = {
  region_size : int;
  capacity : int;
  card_segment_size : int;
  stripe_aligned : bool;
  reclaim_mode : reclaim_mode;
  placement : placement_policy;
  promotion_buffer_bytes : int;
  high_threshold : float;
  low_threshold : float option;
  dynamic_thresholds : bool;
  use_move_hint : bool;
  huge_pages : bool;
}

let default_config =
  {
    region_size = Size.mib 4;
    capacity = Size.mib 256;
    card_segment_size = Size.kib 4;
    stripe_aligned = true;
    reclaim_mode = Dependency_lists;
    placement = Label_only;
    promotion_buffer_bytes = Size.mib 2;
    high_threshold = 0.85;
    low_threshold = Some 0.5;
    dynamic_thresholds = false;
    use_move_hint = true;
    huge_pages = false;
  }

type region_sample = { live_object_pct : float; live_space_pct : float }

type stats = {
  regions_allocated : int;
  regions_reclaimed : int;
  regions_active : int;
  used_bytes : int;
  wasted_bytes : int;
  dep_nodes : int;
  moves_to_h2 : int;
  bytes_moved : int;
  readback_bytes : int;
  rmw_bytes : int;
  minor_scan_time_ns : float;
  degraded_moves : int;
  objects_deferred : int;
  flush_deferrals : int;
}

type region = {
  idx : int;
  mutable label : int;  (* -1 = free *)
  mutable open_key : int;  (* allocator bucket this region is open for *)
  mutable top : int;
  mutable live : bool;
  mutable deps : int list;  (* regions this region's objects reference *)
  objects : Obj_.t Vec.t;  (* append-only, therefore sorted by addr *)
  mutable buffer_fill : int;
  (* Per-card-segment buckets of the objects overlapping each segment
     (an object spanning several segments is registered in all of them).
     Sized lazily on first allocation; reset to [||] when the region is
     reclaimed or reopened, which also releases the object references.
     Buckets inherit [objects]'s address order, so dirty-segment scans
     visit objects exactly as the former binary-search walk did. *)
  mutable seg_index : Obj_.t Vec.t option array;
}

type t = {
  cfg : config;
  clock : Clock.t;
  costs : Costs.t;
  device : Device.t;
  cache : Page_cache.t;
  cards : H2_card_table.t;
  regions : region array;
  mutable next_fresh : int;
  free_regions : int Vec.t;
  open_by_key : (int, int) Hashtbl.t;  (* allocator bucket -> open region *)
  mutable high : float;  (* current thresholds; adapted when dynamic *)
  mutable low : float option;
  move_advice : (int, unit) Hashtbl.t;
  tagged : Obj_.t Vec.t;
  (* Union-Find state for the Region_groups ablation. *)
  group_parent : int array;
  group_live : bool array;
  (* statistics *)
  mutable regions_allocated : int;
  mutable regions_reclaimed : int;
  mutable moves : int;
  mutable bytes_moved : int;
  (* Mutator traffic against H2 residents: the read-back and
     read-modify-write bytes a placement policy is judged on. Counted at
     object granularity on every mutator touch, cache hit or miss — the
     device-level split is in {!Device.stats}. *)
  mutable readback_bytes : int;
  mutable rmw_bytes : int;
  mutable minor_scan_ns : float;
      (* simulated time spent scanning H2 cards/objects during minor GC *)
  (* degraded-mode accounting *)
  mutable degraded_moves : int;
  mutable objects_deferred : int;
  mutable flush_deferrals : int;
  samples : region_sample Vec.t;
}

(* Measured DRAM metadata per region, dependency nodes included
   (calibrated to Table 5: 417 MB per TB of H2 with 1 MB regions). *)
let region_metadata_base_bytes = 57
let dep_node_bytes = 36
let avg_dep_nodes_per_region = 10

let create ~config:cfg ~clock ~costs ~device ~dr2_bytes () =
  if cfg.region_size <= 0 || cfg.capacity < cfg.region_size then
    invalid_arg "H2.create: bad region/capacity sizes";
  let n = cfg.capacity / cfg.region_size in
  let cache_page = if cfg.huge_pages then Size.mib 2 else Device.page_size device in
  let regions =
    Array.init n (fun idx ->
        {
          idx;
          label = -1;
          open_key = -1;
          top = 0;
          live = false;
          deps = [];
          objects = Vec.create ();
          buffer_fill = 0;
          seg_index = [||];
        })
  in
  {
    cfg;
    clock;
    costs;
    device;
    cache = Page_cache.create ~page_size:cache_page ~capacity_bytes:dr2_bytes clock device;
    cards =
      H2_card_table.create ~segment_size:cfg.card_segment_size
        ~stripe_aligned:cfg.stripe_aligned ~stripe_size:cfg.region_size
        ~capacity_bytes:cfg.capacity ();
    regions;
    next_fresh = 0;
    free_regions = Vec.create ();
    open_by_key = Hashtbl.create 64;
    high = cfg.high_threshold;
    low = cfg.low_threshold;
    move_advice = Hashtbl.create 16;
    tagged = Vec.create ();
    group_parent = Array.init n (fun i -> i);
    group_live = Array.make n false;
    regions_allocated = 0;
    regions_reclaimed = 0;
    moves = 0;
    bytes_moved = 0;
    readback_bytes = 0;
    rmw_bytes = 0;
    minor_scan_ns = 0.0;
    degraded_moves = 0;
    objects_deferred = 0;
    flush_deferrals = 0;
    samples = Vec.create ();
  }
  |> fun t ->
  H2_card_table.set_trace_clock t.cards (Some clock);
  t

let config t = t.cfg

let card_table t = t.cards

let page_cache t = t.cache

let gaddr t (o : Obj_.t) = (o.Obj_.h2_region * t.cfg.region_size) + o.Obj_.addr

(* ------------------------------------------------------------------ *)
(* Hint interface                                                      *)

let h2_tag_root t ?site o ~label =
  if label < 0 then invalid_arg "H2.h2_tag_root: negative label";
  (* Tagging marks H1 objects for movement; objects already in H2 keep
     the label of the move that placed them. The site (defaulting to the
     label) keys allocation-site lifetime profiles. *)
  if o.Obj_.loc <> Obj_.In_h2 && o.Obj_.label <> label then begin
    o.Obj_.label <- label;
    o.Obj_.site <- (match site with Some s -> s | None -> label);
    Vec.push t.tagged o
  end

let h2_move t ~label =
  if t.cfg.use_move_hint then Hashtbl.replace t.move_advice label ()

let move_advised t ~label = Hashtbl.mem t.move_advice label

let clear_move_advice t ~label = Hashtbl.remove t.move_advice label

let prune_tagged t =
  Vec.filter_in_place
    (fun (o : Obj_.t) -> o.Obj_.label >= 0 && o.Obj_.loc <> Obj_.In_h2 && o.Obj_.loc <> Obj_.Freed)
    t.tagged;
  Vec.release_slack t.tagged

let tagged_roots t =
  prune_tagged t;
  Vec.to_list t.tagged

(* A degraded compaction left this labelled object in H1. Its original
   root may itself have moved — and self-cleaned off the tagged list —
   so the object re-enters the list to drive the retry at the next major
   GC. [h2_tag_root] would refuse it (the label is already set); the
   caller guarantees it is not already listed. *)
let retag_deferred t (o : Obj_.t) =
  if o.Obj_.label >= 0 && o.Obj_.loc <> Obj_.In_h2 && o.Obj_.loc <> Obj_.Freed
  then Vec.push t.tagged o

(* ------------------------------------------------------------------ *)
(* Union-Find over regions (Region_groups mode)                        *)

let rec uf_find t i =
  let p = t.group_parent.(i) in
  if p = i then i
  else begin
    let r = uf_find t p in
    t.group_parent.(i) <- r;
    r
  end

let uf_union t a b =
  let ra = uf_find t a and rb = uf_find t b in
  if ra <> rb then t.group_parent.(ra) <- rb

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let align8 n = (n + 7) land lnot 7

let note_fault_degraded t ~objects =
  match Device.faults t.device with
  | Some f -> Fault.note_h2_degraded f ~objects ()
  | None -> ()

(* Region lifecycle, flush batches and degradations trace as instants;
   individual object moves do not (a compaction moves thousands — batch
   granularity keeps the ring within budget). *)
let h2_instant t ~name args =
  match Clock.tracer t.clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.instant tr ~ts:(Clock.now_ns t.clock) ~cat:"h2" ~name
        ~args ()

let note_move_degraded t ~objects =
  t.degraded_moves <- t.degraded_moves + 1;
  t.objects_deferred <- t.objects_deferred + objects;
  h2_instant t ~name:"degraded_move" [ ("objects", Th_trace.Event.Int objects) ];
  note_fault_degraded t ~objects

let flush_buffer t (r : region) =
  if r.buffer_fill > 0 then begin
    (* Explicit asynchronous batched write to the device (§3.2), plus the
       DRAM-side copy into the promotion buffer. *)
    h2_instant t ~name:"flush"
      [
        ("region", Th_trace.Event.Int r.idx);
        ("bytes", Th_trace.Event.Int r.buffer_fill);
      ];
    Clock.advance t.clock Clock.Major_gc
      (float_of_int r.buffer_fill *. t.costs.Costs.copy_byte_ns);
    match
      Device.write ~checked:true t.device ~cat:Clock.Major_gc ~random:false
        r.buffer_fill
    with
    | () -> r.buffer_fill <- 0
    | exception Io_retry.Io_error _ ->
        (* A transient write failure outlasted the retry budget (e.g. a
           device-full window): the batch stays staged in DRAM and the
           flush is retried at the next compaction phase. The objects are
           already placed, so only the device write is deferred. *)
        t.flush_deferrals <- t.flush_deferrals + 1;
        h2_instant t ~name:"flush_deferred"
          [ ("region", Th_trace.Event.Int r.idx) ];
        note_fault_degraded t ~objects:0
  end

(* Allocator bucket: one open region per label, or per (label, size
   class) under the size-segregated policy — large objects (an eighth of
   a region or more) get their own regions so a few big dead arrays
   cannot pin regions full of small live objects (§7.3). *)
let bucket_of t ~label ~bytes =
  match t.cfg.placement with
  | Label_only -> label * 2
  | Size_segregated ->
      if bytes >= t.cfg.region_size / 8 then (label * 2) + 1 else label * 2

let seg_range_of_region t (r : region) =
  let lo = r.idx * t.cfg.region_size / t.cfg.card_segment_size in
  let hi =
    ((r.idx * t.cfg.region_size) + t.cfg.region_size + t.cfg.card_segment_size - 1)
    / t.cfg.card_segment_size
  in
  (lo, hi)

(* Register a freshly placed object in the buckets of every card segment
   it overlaps. Overlap uses the object's unpadded [total_size] — the
   same extent the card scan tests — not the 8-byte-aligned allocation
   size, so bucket membership equals the former binary-search result. *)
let seg_index_register t (r : region) (o : Obj_.t) =
  let lo, hi = seg_range_of_region t r in
  let n = hi - lo in
  if Array.length r.seg_index <> n then r.seg_index <- Array.make n None;
  let gstart = (r.idx * t.cfg.region_size) + o.Obj_.addr in
  let s0 = max lo (gstart / t.cfg.card_segment_size) in
  let s1 =
    min (hi - 1) ((gstart + Obj_.total_size o - 1) / t.cfg.card_segment_size)
  in
  for s = s0 to s1 do
    let bucket =
      match r.seg_index.(s - lo) with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          r.seg_index.(s - lo) <- Some v;
          v
    in
    Vec.push bucket o
  done

let open_region t ~label ~key =
  let idx =
    match Vec.pop t.free_regions with
    | Some idx -> idx
    | None ->
        if t.next_fresh >= Array.length t.regions then raise Out_of_h2_space
        else begin
          let idx = t.next_fresh in
          t.next_fresh <- t.next_fresh + 1;
          idx
        end
  in
  let r = t.regions.(idx) in
  r.label <- label;
  r.open_key <- key;
  r.top <- 0;
  r.live <- false;
  r.deps <- [];
  Vec.clear r.objects;
  Vec.release_slack r.objects;
  r.buffer_fill <- 0;
  r.seg_index <- [||];
  t.group_parent.(idx) <- idx;
  t.group_live.(idx) <- false;
  t.regions_allocated <- t.regions_allocated + 1;
  Hashtbl.replace t.open_by_key key idx;
  h2_instant t ~name:"region_open"
    [ ("region", Th_trace.Event.Int idx); ("label", Th_trace.Event.Int label) ];
  r

let alloc t ?group o ~label =
  (* The placement group keys the allocator bucket (and the region's
     label word): policies that co-locate several labels pass a shared
     group; the default — group = label — reproduces the paper's
     one-label-per-region placement exactly. *)
  let glabel = match group with Some g -> g | None -> label in
  let bytes = align8 (Obj_.total_size o) in
  if bytes > t.cfg.region_size then
    invalid_arg "H2.alloc: object larger than an H2 region";
  let key = bucket_of t ~label:glabel ~bytes in
  let r =
    match Hashtbl.find_opt t.open_by_key key with
    | Some idx when t.regions.(idx).label = glabel
                    && t.regions.(idx).open_key = key
                    && t.regions.(idx).top + bytes <= t.cfg.region_size ->
        t.regions.(idx)
    | Some idx ->
        (* Region full (or was reclaimed and reused): open a fresh one.
           The sealed region's promotion buffer drains with the others in
           the compaction phase. *)
        ignore idx;
        open_region t ~label:glabel ~key
    | None -> open_region t ~label:glabel ~key
  in
  o.Obj_.loc <- Obj_.In_h2;
  o.Obj_.h2_region <- r.idx;
  o.Obj_.addr <- r.top;
  r.top <- r.top + bytes;
  Vec.push r.objects o;
  seg_index_register t r o;
  t.moves <- t.moves + 1;
  t.bytes_moved <- t.bytes_moved + bytes;
  (* Fill the promotion buffer; the compaction phase drains buffers in
     device-friendly batches via {!flush_promotion_buffers}. *)
  r.buffer_fill <- r.buffer_fill + bytes

let flush_promotion_buffers t =
  for i = 0 to t.next_fresh - 1 do
    flush_buffer t t.regions.(i)
  done

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)

let clear_live_bits t =
  for i = 0 to t.next_fresh - 1 do
    t.regions.(i).live <- false;
    t.group_live.(i) <- false
  done

let region_is_live t ~region =
  match t.cfg.reclaim_mode with
  | Dependency_lists -> t.regions.(region).live
  | Region_groups -> t.group_live.(uf_find t region)

let mark_live_from_h1 t o =
  let region = o.Obj_.h2_region in
  if region < 0 then invalid_arg "H2.mark_live_from_h1: object not in H2";
  match t.cfg.reclaim_mode with
  | Region_groups -> t.group_live.(uf_find t region) <- true
  | Dependency_lists ->
      let stack = Stack.create () in
      Stack.push region stack;
      while not (Stack.is_empty stack) do
        let i = Stack.pop stack in
        let r = t.regions.(i) in
        if not r.live then begin
          r.live <- true;
          List.iter (fun d -> Stack.push d stack) r.deps
        end
      done

let add_dependency t ~src_region ~dst_region =
  if src_region <> dst_region then
    match t.cfg.reclaim_mode with
    | Region_groups -> uf_union t src_region dst_region
    | Dependency_lists ->
        let r = t.regions.(src_region) in
        if not (List.mem dst_region r.deps) then begin
          r.deps <- dst_region :: r.deps;
          (* A live region that gains a dependency keeps it live within
             this same marking pass. *)
          if r.live && not t.regions.(dst_region).live then begin
            let dummy = t.regions.(dst_region) in
            ignore dummy;
            let stack = Stack.create () in
            Stack.push dst_region stack;
            while not (Stack.is_empty stack) do
              let i = Stack.pop stack in
              let r' = t.regions.(i) in
              if not r'.live then begin
                r'.live <- true;
                List.iter (fun d -> Stack.push d stack) r'.deps
              end
            done
          end
        end

let note_backward_ref t o =
  H2_card_table.mark_dirty t.cards ~gaddr:(gaddr t o)

let free_dead_regions t ~on_free =
  let freed = ref 0 in
  for i = 0 to t.next_fresh - 1 do
    let r = t.regions.(i) in
    if r.label >= 0 && not (region_is_live t ~region:i) then begin
      incr freed;
      h2_instant t ~name:"region_reclaim"
        [
          ("region", Th_trace.Event.Int i);
          ("label", Th_trace.Event.Int r.label);
        ];
      Vec.iter on_free r.objects;
      Vec.push t.samples { live_object_pct = 0.0; live_space_pct = 0.0 };
      (* Reset the allocation pointer and delete the dependency list
         (§3.3); drop cached pages without writeback. *)
      let lo, hi = seg_range_of_region t r in
      H2_card_table.clear_range t.cards ~lo ~hi;
      Page_cache.invalidate_range t.cache ~offset:(i * t.cfg.region_size)
        ~len:t.cfg.region_size;
      (match Hashtbl.find_opt t.open_by_key r.open_key with
      | Some j when j = i -> Hashtbl.remove t.open_by_key r.open_key
      | Some _ | None -> ());
      r.label <- -1;
      r.open_key <- -1;
      r.top <- 0;
      r.deps <- [];
      r.buffer_fill <- 0;
      Vec.clear r.objects;
      Vec.release_slack r.objects;
      r.seg_index <- [||];
      t.group_parent.(i) <- i;
      Vec.push t.free_regions i;
      t.regions_reclaimed <- t.regions_reclaimed + 1
    end
  done;
  !freed

(* ------------------------------------------------------------------ *)
(* Mutator access                                                      *)

let mutator_read t o =
  t.readback_bytes <- t.readback_bytes + Obj_.total_size o;
  Page_cache.access t.cache ~cat:Clock.Other ~write:false ~offset:(gaddr t o)
    ~len:(Obj_.total_size o)

let mutator_write t o =
  t.rmw_bytes <- t.rmw_bytes + Obj_.total_size o;
  Page_cache.access t.cache ~cat:Clock.Other ~write:true ~offset:(gaddr t o)
    ~len:(Obj_.total_size o);
  (* Kernel writeback: updating a file-backed mapping dirties whole pages
     that are flushed to the device on their own cadence — the
     read-modify-write traffic that makes moving mutable objects to H2
     expensive (§7.2: up to 98 % more device writes). *)
  Device.write t.device ~cat:Clock.Other ~random:true
    ((Obj_.total_size o + 1) / 2);
  Clock.advance t.clock Clock.Other t.costs.Costs.write_barrier_ns;
  note_backward_ref t o

(* ------------------------------------------------------------------ *)
(* Card scanning                                                       *)

let region_of_seg t seg =
  seg * t.cfg.card_segment_size / t.cfg.region_size

(* Objects of [r] overlapping segment [seg]: a direct bucket lookup in
   the region's segment index (formerly a binary search over the
   address-sorted [r.objects]). Buckets preserve allocation order, so the
   visit order — ascending address — is unchanged. *)
let iter_objects_in_seg t (r : region) seg f =
  let lo = r.idx * t.cfg.region_size / t.cfg.card_segment_size in
  let i = seg - lo in
  if i >= 0 && i < Array.length r.seg_index then
    match r.seg_index.(i) with Some bucket -> Vec.iter f bucket | None -> ()

let scan_cards ~major t ~on_object =
  let total_segments =
    if t.next_fresh = 0 then 0
    else (t.next_fresh * t.cfg.region_size) / t.cfg.card_segment_size
  in
  if total_segments > 0 then begin
    (* Examining every card entry of allocated H2 space. Parallel GC
       threads each take their own stripes, so the scan parallelises. *)
    let scan_cost =
      float_of_int total_segments *. t.costs.Costs.card_scan_ns
    in
    Clock.advance t.clock
      (if major then Clock.Major_gc else Clock.Minor_gc)
      (Costs.parallel t.costs ~threads:t.costs.Costs.gc_threads scan_cost);
    let cat = if major then Clock.Major_gc else Clock.Minor_gc in
    let visit seg _state =
      let region = region_of_seg t seg in
      let r = t.regions.(region) in
      if r.label >= 0 then begin
        (* Touching device-resident objects faults their pages in. *)
        Page_cache.access t.cache ~cat ~write:false
          ~offset:(seg * t.cfg.card_segment_size)
          ~len:t.cfg.card_segment_size;
        iter_objects_in_seg t r seg (fun o ->
            Clock.advance t.clock cat
              (Costs.parallel t.costs ~threads:t.costs.Costs.gc_threads
                 t.costs.Costs.card_obj_scan_ns);
            on_object o)
      end
    in
    if major then H2_card_table.iter_major_scan t.cards ~lo:0 ~hi:total_segments visit
    else H2_card_table.iter_minor_scan t.cards ~lo:0 ~hi:total_segments visit
  end

let scan_cards_minor t ~on_object =
  let before = Clock.now_ns t.clock in
  scan_cards ~major:false t ~on_object;
  t.minor_scan_ns <- t.minor_scan_ns +. (Clock.now_ns t.clock -. before)

let scan_cards_major t ~on_object = scan_cards ~major:true t ~on_object

let seg_state_from_objects t (r : region) seg =
  let to_young = ref false and to_old = ref false in
  iter_objects_in_seg t r seg (fun o ->
      Obj_.iter_refs
        (fun child ->
          match child.Obj_.loc with
          | Obj_.Eden | Obj_.Survivor -> to_young := true
          | Obj_.Old -> to_old := true
          | Obj_.In_h2 ->
              (* A former backward reference whose target has since moved
                 to H2 is a newly discovered cross-region reference: it
                 must enter the dependency lists before this card can be
                 cleaned, or the target's region could be reclaimed under
                 a live reference (§4, pointer adjustment). *)
              if child.Obj_.h2_region <> r.idx then
                add_dependency t ~src_region:r.idx
                  ~dst_region:child.Obj_.h2_region
          | Obj_.Freed -> ())
        o);
  if !to_young then H2_card_table.Young_gen
  else if !to_old then H2_card_table.Old_gen
  else H2_card_table.Clean

let recompute_card_states t ~major =
  let total_segments =
    if t.next_fresh = 0 then 0
    else (t.next_fresh * t.cfg.region_size) / t.cfg.card_segment_size
  in
  let recompute seg _state =
    let region = region_of_seg t seg in
    let r = t.regions.(region) in
    if r.label >= 0 then
      H2_card_table.set_state t.cards ~seg (seg_state_from_objects t r seg)
  in
  if total_segments > 0 then begin
    if major then
      H2_card_table.iter_major_scan t.cards ~lo:0 ~hi:total_segments recompute
    else H2_card_table.iter_minor_scan t.cards ~lo:0 ~hi:total_segments recompute
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let device t = t.device

let free_region_list t = Vec.to_list t.free_regions

let label_of_region t ~region = t.regions.(region).label

let in_same_group t ~a ~b = uf_find t a = uf_find t b

let opened_regions t = t.next_fresh

let region_top t ~region = t.regions.(region).top

let region_live t ~region = t.regions.(region).live

let region_deps t ~region = t.regions.(region).deps

let region_objects t ~region = t.regions.(region).objects

(* Corruption plant for the sanitizer's mutation tests: silently drop a
   dependency edge, leaving the heap exactly as a protocol bug would. *)
let debug_remove_dependency t ~src_region ~dst_region =
  let r = t.regions.(src_region) in
  r.deps <- List.filter (fun d -> d <> dst_region) r.deps

let minor_scan_ns t = t.minor_scan_ns

let high_threshold t = t.high

let low_threshold t = t.low

(* Adaptive controller for the move thresholds (the paper leaves dynamic
   thresholds as future work, §7.2). After each major GC: still above the
   high watermark -> move more next time (lower the low threshold);
   comfortably below the low watermark -> move less eagerly (raise it),
   sparing mutable objects the device read-modify-writes. *)
let adapt_thresholds t ~live_ratio =
  if t.cfg.dynamic_thresholds then begin
    match t.low with
    | Some low ->
        if live_ratio > t.high then
          t.low <- Some (Float.max 0.3 (low -. 0.05))
        else if live_ratio < low +. 0.1 then
          t.low <- Some (Float.min (t.high -. 0.1) (low +. 0.05))
    | None -> ()
  end

let used_bytes t =
  let sum = ref 0 in
  for i = 0 to t.next_fresh - 1 do
    let r = t.regions.(i) in
    if r.label >= 0 then sum := !sum + r.top
  done;
  !sum

let iter_objects t f =
  for i = 0 to t.next_fresh - 1 do
    let r = t.regions.(i) in
    if r.label >= 0 then Vec.iter f r.objects
  done

let stats t =
  let active = ref 0 and used = ref 0 and wasted = ref 0 and deps = ref 0 in
  for i = 0 to t.next_fresh - 1 do
    let r = t.regions.(i) in
    if r.label >= 0 then begin
      incr active;
      used := !used + r.top;
      (* Internal fragmentation: space between top and region end counts
         as waste only for sealed (non-open) regions. *)
      (match Hashtbl.find_opt t.open_by_key r.open_key with
      | Some idx when idx = i -> ()
      | _ -> wasted := !wasted + (t.cfg.region_size - r.top));
      deps := !deps + List.length r.deps
    end
  done;
  {
    regions_allocated = t.regions_allocated;
    regions_reclaimed = t.regions_reclaimed;
    regions_active = !active;
    used_bytes = !used;
    wasted_bytes = !wasted;
    dep_nodes = !deps;
    moves_to_h2 = t.moves;
    bytes_moved = t.bytes_moved;
    readback_bytes = t.readback_bytes;
    rmw_bytes = t.rmw_bytes;
    minor_scan_time_ns = t.minor_scan_ns;
    degraded_moves = t.degraded_moves;
    objects_deferred = t.objects_deferred;
    flush_deferrals = t.flush_deferrals;
  }

let metadata_bytes t =
  let s = stats t in
  H2_card_table.metadata_bytes t.cards
  + (s.regions_active * region_metadata_base_bytes)
  + (s.dep_nodes * dep_node_bytes)

let metadata_bytes_per_tb ~region_size =
  let regions = Size.gib 1024 / region_size in
  regions
  * (region_metadata_base_bytes + (avg_dep_nodes_per_region * dep_node_bytes))

let harvest_region_samples t ~is_live =
  let out = ref (Vec.to_list t.samples) in
  for i = 0 to t.next_fresh - 1 do
    let r = t.regions.(i) in
    if r.label >= 0 && Vec.length r.objects > 0 then begin
      let n = Vec.length r.objects in
      let live = ref 0 and live_bytes = ref 0 in
      Vec.iter
        (fun o ->
          if is_live o then begin
            incr live;
            live_bytes := !live_bytes + Obj_.total_size o
          end)
        r.objects;
      out :=
        {
          live_object_pct = 100.0 *. float_of_int !live /. float_of_int n;
          live_space_pct =
            100.0 *. float_of_int !live_bytes /. float_of_int t.cfg.region_size;
        }
        :: !out
    end
  done;
  !out

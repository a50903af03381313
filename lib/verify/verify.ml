open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module Card_table = Th_minijvm.Card_table
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module H2_card_table = Th_core.H2_card_table
module Device = Th_device.Device
module Page_cache = Th_device.Page_cache
module Rt = Th_psgc.Rt
module Heap_census = Th_psgc.Heap_census

type level = Off | Safepoint | Paranoid

type rule =
  | Rset_completeness
  | H2_card_legality
  | H2_card_transition
  | Dependency_soundness
  | Region_accounting
  | Reachability
  | Conservation

let rule_id = function
  | Rset_completeness -> "rset-completeness"
  | H2_card_legality -> "h2-card-legality"
  | H2_card_transition -> "h2-card-transition"
  | Dependency_soundness -> "dependency-soundness"
  | Region_accounting -> "region-accounting"
  | Reachability -> "reachability"
  | Conservation -> "conservation"

type phase =
  | Before_minor
  | After_minor
  | Before_major
  | After_major
  | Online
  | Manual

let phase_name = function
  | Before_minor -> "before-minor"
  | After_minor -> "after-minor"
  | Before_major -> "before-major"
  | After_major -> "after-major"
  | Online -> "online"
  | Manual -> "manual"

type violation = {
  rule : rule;
  phase : phase;
  detail : string;
  object_id : int option;
  region : int option;
  card : int option;
}

type t = {
  rt : Rt.t;
  level : level;
  violations : violation Vec.t;
  (* Everything monotone between safepoints, captured at the previous
     one. The capture and the monotonicity rules live in
     [Counters] / {!Th_trace.Snapshot} so the trace rollup checks the
     same counters the sanitizer watches. *)
  mutable last : Th_trace.Snapshot.t option;
  (* One walk over H2 evaluates the H2 halves of rules 2-4 together.
     Each rule writes to its own buffer, emptied at every check, and the
     buffers are appended in rule order, so the violation list reads as
     if each rule had walked H2 on its own. *)
  h2_cards : violation Vec.t;
  h2_deps : violation Vec.t;
  h2_accounting : violation Vec.t;
}

let violations t = Vec.to_list t.violations

let violation_count t = Vec.length t.violations

let push buf ~rule ~phase ?object_id ?region ?card detail =
  Vec.push buf { rule; phase; detail; object_id; region; card }

let add t ~rule ~phase ?object_id ?region ?card detail =
  push t.violations ~rule ~phase ?object_id ?region ?card detail

let append t buf =
  for i = 0 to Vec.length buf - 1 do
    Vec.push t.violations (Vec.get buf i)
  done

let pp_violation f v =
  Format.fprintf f "[%s] %s: %s" (rule_id v.rule) (phase_name v.phase) v.detail;
  (match v.object_id with
  | Some id -> Format.fprintf f " (object #%d)" id
  | None -> ());
  (match v.region with
  | Some r -> Format.fprintf f " (region %d)" r
  | None -> ());
  match v.card with Some c -> Format.fprintf f " (card %d)" c | None -> ()

let report t =
  let b = Buffer.create 256 in
  let f = Format.formatter_of_buffer b in
  Format.fprintf f "heap-state sanitizer: %d violation(s)@."
    (Vec.length t.violations);
  Vec.iter (fun v -> Format.fprintf f "  %a@." pp_violation v) t.violations;
  Format.pp_print_flush f ();
  Buffer.contents b

(* The checks below run at every safepoint over every object, so their
   per-object paths allocate nothing: references are scanned with [for]
   loops and helpers are top-level functions, never closures built per
   object. Only a violation allocates (its record and message). *)

(* ------------------------------------------------------------------ *)
(* Rule 1: remembered-set completeness (H1 cards + object-start index) *)

(* One sweep of [old_objs] in step with the cards. Every index entry is
   checked against its definition — [start_index c] is the position of
   the first object starting on card [c] or later — so each card's range
   holds exactly the objects starting on it, and the [Card_index] walk
   and the [Linear_scan] oracle necessarily visit the same objects. Only
   the first wrong entry is reported: one dropped object shifts every
   entry after it. *)
let check_rset t phase =
  let heap = t.rt.Rt.heap in
  let cards = heap.H1_heap.cards in
  let csize = Card_table.card_size cards in
  let ncards = Card_table.num_cards cards in
  let old_objs = heap.H1_heap.old_objs in
  let n = Vec.length old_objs in
  if Card_table.indexed_objects cards <> n then
    add t ~rule:Rset_completeness ~phase
      (Printf.sprintf
         "object-start index covers %d objects, old generation has %d"
         (Card_table.indexed_objects cards) n);
  let entry_ok = ref true in
  (* Cards [0, !card) are checked; entries up to [upto] must be [i]. *)
  let card = ref 0 in
  let check_entries ~upto i =
    while !card <= upto do
      let got = Card_table.start_index cards ~card:!card in
      if !entry_ok && got <> i then begin
        entry_ok := false;
        add t ~rule:Rset_completeness ~phase ~card:!card
          (Printf.sprintf
             "object-start entry is position %d, first object at or after \
              the card is at %d" got i)
      end;
      incr card
    done
  in
  let prev_addr = ref (-1) in
  Vec.iteri
    (fun i (o : Obj_.t) ->
      if o.Obj_.addr <= !prev_addr then
        add t ~rule:Rset_completeness ~phase ~object_id:o.Obj_.id
          (Printf.sprintf
             "old generation not address-sorted: address %d after %d"
             o.Obj_.addr !prev_addr);
      prev_addr := o.Obj_.addr;
      (* Out-of-range addresses are transiently possible right after a
         major GC whose survivors overflowed the old generation (the
         collector raises Out_of_memory immediately afterwards); only the
         in-range cards are checked. *)
      let c = o.Obj_.addr / csize in
      check_entries ~upto:(min c ncards) i;
      if
        o.Obj_.loc = Obj_.Old && c >= 0 && c < ncards && Obj_.has_young_ref o
        && not (Card_table.is_dirty cards ~card:c)
      then
        add t ~rule:Rset_completeness ~phase ~object_id:o.Obj_.id ~card:c
          "old object with a young reference on a clean card")
    old_objs;
  check_entries ~upto:ncards n

(* ------------------------------------------------------------------ *)
(* Rule 2: H2 card-state legality                                      *)

(* An object's backward references are scanned if *any* segment it
   overlaps is in a scanned state: the per-segment buckets register the
   object under every overlapped segment, and the write barrier dirties
   only the start segment. The check is therefore existential over the
   object's segment range, exactly matching scan coverage. [gstart] is
   the object's global address; the flags say which generations its
   references reach. *)
let check_backward_cover buf phase cards ~nsegs ~seg_size ~region ~gstart
    ~to_young ~to_old (o : Obj_.t) =
  let s0 = max 0 (gstart / seg_size) in
  let s1 = min (nsegs - 1) ((gstart + Obj_.total_size o - 1) / seg_size) in
  let scanned_minor = ref false and non_clean = ref false in
  for s = s0 to s1 do
    match H2_card_table.state cards ~seg:s with
    | H2_card_table.Dirty | H2_card_table.Young_gen ->
        scanned_minor := true;
        non_clean := true
    | H2_card_table.Old_gen -> non_clean := true
    | H2_card_table.Clean -> ()
  done;
  if to_young && not !scanned_minor then
    push buf ~rule:H2_card_legality ~phase ~object_id:o.Obj_.id ~region
      ~card:s0
      "H2 object with a young backward reference covered by no \
       dirty/youngGen segment";
  if (not to_young) && to_old && not !non_clean then
    push buf ~rule:H2_card_legality ~phase ~object_id:o.Obj_.id ~region
      ~card:s0
      "H2 object with an old backward reference covered only by clean \
       segments"

(* Rule 2b: transition legality, recorded online by the card-table hook.
   [Recompute] legality is judged on the state the collector *requested*
   (sticky boundary cards may keep [Dirty] lawfully): a recompute never
   targets [Dirty], never runs on a [Clean] card (the scan iterators skip
   them), and never upgrades [Old_gen] to [Young_gen] — right after the
   only recompute that visits [Old_gen] cards (major GC), no young
   objects exist. *)
let bad_transition t seg detail =
  add t ~rule:H2_card_transition ~phase:Online ~card:seg detail

let check_transition t ~seg ~before ~after event =
  match event with
  | H2_card_table.Barrier_dirty ->
      if after <> H2_card_table.Dirty then
        bad_transition t seg "write barrier left the card in a non-dirty state"
  | H2_card_table.Bulk_clear ->
      if after <> H2_card_table.Clean then
        bad_transition t seg "bulk region reclamation left the card non-clean"
  | H2_card_table.Recompute target -> (
      if before = H2_card_table.Clean then
        bad_transition t seg "card recompute ran on a clean card";
      if target = H2_card_table.Dirty then
        bad_transition t seg "card recompute targeted the dirty state";
      match (before, target) with
      | H2_card_table.Old_gen, H2_card_table.Young_gen ->
          bad_transition t seg "card recompute upgraded oldGen to youngGen"
      | ( ( H2_card_table.Clean | H2_card_table.Dirty
          | H2_card_table.Young_gen | H2_card_table.Old_gen ),
          ( H2_card_table.Clean | H2_card_table.Dirty
          | H2_card_table.Young_gen | H2_card_table.Old_gen ) ) ->
          ())

(* ------------------------------------------------------------------ *)
(* Rule 3: dependency-list soundness                                   *)

let active h2 region = H2.label_of_region h2 ~region >= 0

let rec check_dep_targets buf phase h2 ~region = function
  | [] -> ()
  | d :: rest ->
      if not (active h2 d) then
        push buf ~rule:Dependency_soundness ~phase ~region
          (Printf.sprintf "dependency list targets reclaimed region %d" d);
      check_dep_targets buf phase h2 ~region rest

(* A reference from [o] in [region] to an object in region [dst]. *)
let check_cross_region buf phase h2 ~mode ~region ~deps (o : Obj_.t) dst =
  if not (active h2 dst) then
    push buf ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id ~region
      (Printf.sprintf "cross-region reference into reclaimed region %d" dst)
  else
    match mode with
    | H2.Dependency_lists ->
        if not (List.mem dst deps) then
          push buf ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
            ~region
            (Printf.sprintf
               "cross-region reference to region %d missing from the \
                dependency list" dst)
    | H2.Region_groups ->
        if not (H2.in_same_group h2 ~a:region ~b:dst) then
          push buf ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
            ~region
            (Printf.sprintf
               "cross-region reference to region %d outside the Union-Find \
                group" dst)

(* Forward-reference coverage: a live H1 resident must never point into
   a reclaimed region — region liveness is driven by exactly these
   references plus the dependency lists (§3.3). *)
let check_forward_refs t phase h2 vec =
  for j = 0 to Vec.length vec - 1 do
    let o : Obj_.t = Vec.get vec j in
    for i = 0 to o.Obj_.nrefs - 1 do
      let c = o.Obj_.refs.(i) in
      if c.Obj_.loc = Obj_.In_h2 && not (active h2 c.Obj_.h2_region) then
        add t ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
          ~region:c.Obj_.h2_region
          "H1 object holds a forward reference into a reclaimed region"
    done
  done

(* ------------------------------------------------------------------ *)
(* Rule 4: region and space accounting                                 *)

let align8 n = (n + 7) land lnot 7

(* [unrecorded] is the space's bytes that have no record: eden's
   dead-on-arrival allocations. *)
let check_space t phase name vec expected_loc used ~unrecorded ~by_footprint =
  let sum = ref unrecorded in
  for i = 0 to Vec.length vec - 1 do
    let o : Obj_.t = Vec.get vec i in
    if o.Obj_.loc <> expected_loc then
      add t ~rule:Region_accounting ~phase ~object_id:o.Obj_.id
        (Printf.sprintf "%s vector holds an object located elsewhere" name)
    else
      sum :=
        !sum + if by_footprint then Obj_.footprint o else Obj_.total_size o
  done;
  if !sum <> used then
    add t ~rule:Region_accounting ~phase
      (Printf.sprintf "%s accounting: used=%d, object sum=%d" name used !sum)

let total_size_sum vec =
  let s = ref 0 in
  for i = 0 to Vec.length vec - 1 do
    s := !s + Obj_.total_size (Vec.get vec i)
  done;
  !s

let check_h1_accounting t phase =
  let heap = t.rt.Rt.heap in
  check_space t phase "eden" heap.H1_heap.eden Obj_.Eden heap.H1_heap.eden_used
    ~unrecorded:heap.H1_heap.dead_young_bytes ~by_footprint:false;
  check_space t phase "survivor" heap.H1_heap.survivor Obj_.Survivor
    heap.H1_heap.survivor_used ~unrecorded:0 ~by_footprint:false;
  check_space t phase "old" heap.H1_heap.old_objs Obj_.Old
    heap.H1_heap.old_used ~unrecorded:0 ~by_footprint:true;
  (* The census recomputes H1 composition from scratch; its total must
     match an independent sum over the space vectors plus the
     dead-on-arrival bytes. *)
  let census = Heap_census.of_runtime t.rt in
  let vec_total =
    heap.H1_heap.dead_young_bytes
    + total_size_sum heap.H1_heap.eden
    + total_size_sum heap.H1_heap.survivor
    + total_size_sum heap.H1_heap.old_objs
  in
  if Heap_census.total_bytes census <> vec_total then
    add t ~rule:Region_accounting ~phase
      (Printf.sprintf "heap census total %d disagrees with space vectors %d"
         (Heap_census.total_bytes census) vec_total)

let check_h2_totals t phase h2 ~top_sum =
  if H2.used_bytes h2 <> top_sum then
    add t ~rule:Region_accounting ~phase
      (Printf.sprintf "H2 used_bytes %d disagrees with region tops %d"
         (H2.used_bytes h2) top_sum);
  List.iter
    (fun r ->
      if H2.label_of_region h2 ~region:r >= 0 then
        add t ~rule:Region_accounting ~phase ~region:r
          "free-list region carries a label")
    (H2.free_region_list h2)

(* ------------------------------------------------------------------ *)
(* The H2 walk: rules 2, 3 and 4 over each region's objects at once    *)

(* One active region's objects. Rules 2 and 3 share one scan of each
   object's references; rule 4 replays the bump allocator over the
   address-ordered vector, so addresses and the allocation pointer must
   agree. *)
let walk_region t phase h2 cards ~nsegs ~seg_size ~region_size ~mode ~region
    ~top ~deps objects =
  let base = region * region_size in
  let acct = t.h2_accounting in
  let expected = ref 0 in
  for j = 0 to Vec.length objects - 1 do
    let o : Obj_.t = Vec.get objects j in
    let to_young = ref false and to_old = ref false in
    for i = 0 to o.Obj_.nrefs - 1 do
      let c = o.Obj_.refs.(i) in
      match c.Obj_.loc with
      | Obj_.Eden | Obj_.Survivor -> to_young := true
      | Obj_.Old -> to_old := true
      | Obj_.In_h2 ->
          if c.Obj_.h2_region <> region then
            check_cross_region t.h2_deps phase h2 ~mode ~region ~deps o
              c.Obj_.h2_region
      | Obj_.Freed ->
          push t.h2_deps ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
            ~region
            (Printf.sprintf "H2 object references freed object #%d" c.Obj_.id)
    done;
    if !to_young || !to_old then
      check_backward_cover t.h2_cards phase cards ~nsegs ~seg_size ~region
        ~gstart:(base + o.Obj_.addr) ~to_young:!to_young ~to_old:!to_old o;
    if o.Obj_.loc <> Obj_.In_h2 then
      push acct ~rule:Region_accounting ~phase ~object_id:o.Obj_.id ~region
        "region vector holds an object not located in H2"
    else begin
      if o.Obj_.h2_region <> region then
        push acct ~rule:Region_accounting ~phase ~object_id:o.Obj_.id ~region
          "region vector holds an object of another region";
      if o.Obj_.addr <> !expected then
        push acct ~rule:Region_accounting ~phase ~object_id:o.Obj_.id ~region
          (Printf.sprintf
             "object address %d breaks the bump sequence (expected %d)"
             o.Obj_.addr !expected);
      expected := !expected + align8 (Obj_.total_size o)
    end
  done;
  if !expected <> top then
    push acct ~rule:Region_accounting ~phase ~region
      (Printf.sprintf "region top %d, object sum %d" top !expected);
  if top > region_size then
    push acct ~rule:Region_accounting ~phase ~region
      "allocation pointer beyond the region size"

(* Fills the three H2 buffers and returns the sum of the active regions'
   allocation pointers, for the [used_bytes] check. *)
let walk_h2 t phase h2 =
  let cfg = H2.config h2 in
  let cards = H2.card_table h2 in
  let nsegs = H2_card_table.num_segments cards in
  let seg_size = cfg.H2.card_segment_size in
  let region_size = cfg.H2.region_size in
  let mode = cfg.H2.reclaim_mode in
  Vec.clear t.h2_cards;
  Vec.clear t.h2_deps;
  Vec.clear t.h2_accounting;
  let top_sum = ref 0 in
  for region = 0 to H2.opened_regions h2 - 1 do
    let top = H2.region_top h2 ~region in
    let deps = H2.region_deps h2 ~region in
    let objects = H2.region_objects h2 ~region in
    if H2.label_of_region h2 ~region >= 0 then begin
      top_sum := !top_sum + top;
      check_dep_targets t.h2_deps phase h2 ~region deps;
      walk_region t phase h2 cards ~nsegs ~seg_size ~region_size ~mode ~region
        ~top ~deps objects
    end
    else begin
      if top <> 0 || Vec.length objects <> 0 || deps <> [] then
        push t.h2_accounting ~rule:Region_accounting ~phase ~region
          "reclaimed region retains objects, space or dependencies";
      if H2.region_live h2 ~region then
        push t.h2_accounting ~rule:Region_accounting ~phase ~region
          "reclaimed region carries a live bit"
    end
  done;
  !top_sum

(* ------------------------------------------------------------------ *)
(* Rule 6 (Paranoid): from-scratch reachability census                 *)

let check_reachability t phase =
  let roots = Roots.to_list t.rt.Rt.roots in
  let reach = Obj_.reachable ~roots ~fence_h2:false in
  (* Order-insensitive: ids are collected and sorted before checking, so
     the violation order never depends on hash iteration.
     th-lint: allow hashtbl-order *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) reach [] in
  List.iter
    (fun id ->
      let o = Hashtbl.find reach id in
      if Obj_.is_freed o then
        add t ~rule:Reachability ~phase ~object_id:id
          "reachable object is marked freed"
      else if o.Obj_.loc = Obj_.In_h2 then
        match t.rt.Rt.h2 with
        | None ->
            add t ~rule:Reachability ~phase ~object_id:id
              "reachable object located in H2 but no H2 heap is attached"
        | Some h2 ->
            if H2.label_of_region h2 ~region:o.Obj_.h2_region < 0 then
              add t ~rule:Reachability ~phase ~object_id:id
                ~region:o.Obj_.h2_region
                "reachable H2 object lives in a reclaimed region")
    (List.sort Int.compare ids)

(* ------------------------------------------------------------------ *)
(* Rule 5: conservation (monotone counters, clock consistency)         *)

let check_conservation t phase =
  let clock = t.rt.Rt.clock in
  let now = Clock.now_ns clock in
  let bd = Clock.breakdown clock in
  if Float.abs (now -. Clock.total_ns bd) > 1e-3 then
    add t ~rule:Conservation ~phase
      "clock total disagrees with its per-category breakdown";
  (match t.rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      let cache = H2.page_cache h2 in
      if Page_cache.resident_pages cache > Page_cache.capacity_pages cache then
        add t ~rule:Conservation ~phase
          "page cache holds more pages than its capacity");
  let current = Counters.capture t.rt in
  (match t.last with
  | None -> ()
  | Some last ->
      List.iter
        (fun detail -> add t ~rule:Conservation ~phase detail)
        (Th_trace.Snapshot.monotone ~earlier:last ~later:current));
  t.last <- Some current

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run_checks t phase =
  check_rset t phase;
  let heap = t.rt.Rt.heap in
  (match t.rt.Rt.h2 with
  | None -> check_h1_accounting t phase
  | Some h2 ->
      let top_sum = walk_h2 t phase h2 in
      append t t.h2_cards;
      append t t.h2_deps;
      check_forward_refs t phase h2 heap.H1_heap.eden;
      check_forward_refs t phase h2 heap.H1_heap.survivor;
      check_forward_refs t phase h2 heap.H1_heap.old_objs;
      check_h1_accounting t phase;
      append t t.h2_accounting;
      check_h2_totals t phase h2 ~top_sum);
  if t.level = Paranoid then check_reachability t phase;
  check_conservation t phase

let phase_of_safepoint = function
  | Rt.Before_minor -> Before_minor
  | Rt.After_minor -> After_minor
  | Rt.Before_major -> Before_major
  | Rt.After_major -> After_major

let check_now t = run_checks t Manual

let attach rt level =
  let t =
    {
      rt;
      level;
      violations = Vec.create ();
      last = None;
      h2_cards = Vec.create ();
      h2_deps = Vec.create ();
      h2_accounting = Vec.create ();
    }
  in
  if level <> Off then begin
    rt.Rt.safepoint_hook <- Some (fun p -> run_checks t (phase_of_safepoint p));
    match rt.Rt.h2 with
    | None -> ()
    | Some h2 ->
        H2_card_table.set_transition_hook (H2.card_table h2)
          (Some
             (fun ~seg ~before ~after event ->
               check_transition t ~seg ~before ~after event))
  end;
  t

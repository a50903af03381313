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

let level_of_string = function
  | "off" -> Some Off
  | "safepoint" -> Some Safepoint
  | "paranoid" -> Some Paranoid
  | _ -> None

let level_to_string = function
  | Off -> "off"
  | Safepoint -> "safepoint"
  | Paranoid -> "paranoid"

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
}

let violations t = Vec.to_list t.violations

let violation_count t = Vec.length t.violations

let add t ~rule ~phase ?object_id ?region ?card detail =
  Vec.push t.violations { rule; phase; detail; object_id; region; card }

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
   object's segment range, exactly matching scan coverage. *)
let check_h2_cards t phase h2 =
  let cfg = H2.config h2 in
  let cards = H2.card_table h2 in
  let nsegs = H2_card_table.num_segments cards in
  let seg_size = cfg.H2.card_segment_size in
  H2.iter_region_views h2 (fun (rv : H2.region_view) ->
      if rv.H2.view_label >= 0 then
        Vec.iter
          (fun (o : Obj_.t) ->
            let to_young = ref false and to_old = ref false in
            Obj_.iter_refs
              (fun c ->
                match c.Obj_.loc with
                | Obj_.Eden | Obj_.Survivor -> to_young := true
                | Obj_.Old -> to_old := true
                | Obj_.In_h2 | Obj_.Freed -> ())
              o;
            if !to_young || !to_old then begin
              let gstart =
                (rv.H2.view_idx * cfg.H2.region_size) + o.Obj_.addr
              in
              let s0 = max 0 (gstart / seg_size) in
              let s1 =
                min (nsegs - 1) ((gstart + Obj_.total_size o - 1) / seg_size)
              in
              let scanned_minor = ref false and non_clean = ref false in
              for s = s0 to s1 do
                match H2_card_table.state cards ~seg:s with
                | H2_card_table.Dirty | H2_card_table.Young_gen ->
                    scanned_minor := true;
                    non_clean := true
                | H2_card_table.Old_gen -> non_clean := true
                | H2_card_table.Clean -> ()
              done;
              if !to_young && not !scanned_minor then
                add t ~rule:H2_card_legality ~phase ~object_id:o.Obj_.id
                  ~region:rv.H2.view_idx ~card:s0
                  "H2 object with a young backward reference covered by no \
                   dirty/youngGen segment";
              if (not !to_young) && !to_old && not !non_clean then
                add t ~rule:H2_card_legality ~phase ~object_id:o.Obj_.id
                  ~region:rv.H2.view_idx ~card:s0
                  "H2 object with an old backward reference covered only by \
                   clean segments"
            end)
          rv.H2.view_objects)

(* Rule 2b: transition legality, recorded online by the card-table hook.
   [Recompute] legality is judged on the state the collector *requested*
   (sticky boundary cards may keep [Dirty] lawfully): a recompute never
   targets [Dirty], never runs on a [Clean] card (the scan iterators skip
   them), and never upgrades [Old_gen] to [Young_gen] — right after the
   only recompute that visits [Old_gen] cards (major GC), no young
   objects exist. *)
let check_transition t ~seg ~before ~after event =
  let bad detail = add t ~rule:H2_card_transition ~phase:Online ~card:seg detail in
  match event with
  | H2_card_table.Barrier_dirty ->
      if after <> H2_card_table.Dirty then
        bad "write barrier left the card in a non-dirty state"
  | H2_card_table.Bulk_clear ->
      if after <> H2_card_table.Clean then
        bad "bulk region reclamation left the card non-clean"
  | H2_card_table.Recompute target -> (
      if before = H2_card_table.Clean then
        bad "card recompute ran on a clean card";
      if target = H2_card_table.Dirty then
        bad "card recompute targeted the dirty state";
      match (before, target) with
      | H2_card_table.Old_gen, H2_card_table.Young_gen ->
          bad "card recompute upgraded oldGen to youngGen"
      | ( ( H2_card_table.Clean | H2_card_table.Dirty
          | H2_card_table.Young_gen | H2_card_table.Old_gen ),
          ( H2_card_table.Clean | H2_card_table.Dirty
          | H2_card_table.Young_gen | H2_card_table.Old_gen ) ) ->
          ())

(* ------------------------------------------------------------------ *)
(* Rule 3: dependency-list soundness                                   *)

let check_deps t phase h2 =
  let heap = t.rt.Rt.heap in
  let mode = (H2.config h2).H2.reclaim_mode in
  let active region = H2.label_of_region h2 ~region >= 0 in
  H2.iter_region_views h2 (fun (rv : H2.region_view) ->
      if rv.H2.view_label >= 0 then begin
        let src = rv.H2.view_idx in
        List.iter
          (fun d ->
            if not (active d) then
              add t ~rule:Dependency_soundness ~phase ~region:src
                (Printf.sprintf "dependency list targets reclaimed region %d" d))
          rv.H2.view_deps;
        Vec.iter
          (fun (o : Obj_.t) ->
            Obj_.iter_refs
              (fun c ->
                match c.Obj_.loc with
                | Obj_.In_h2 when c.Obj_.h2_region <> src ->
                    let dst = c.Obj_.h2_region in
                    if not (active dst) then
                      add t ~rule:Dependency_soundness ~phase
                        ~object_id:o.Obj_.id ~region:src
                        (Printf.sprintf
                           "cross-region reference into reclaimed region %d" dst)
                    else begin
                      match mode with
                      | H2.Dependency_lists ->
                          if not (List.mem dst rv.H2.view_deps) then
                            add t ~rule:Dependency_soundness ~phase
                              ~object_id:o.Obj_.id ~region:src
                              (Printf.sprintf
                                 "cross-region reference to region %d missing \
                                  from the dependency list" dst)
                      | H2.Region_groups ->
                          if not (H2.in_same_group h2 ~a:src ~b:dst) then
                            add t ~rule:Dependency_soundness ~phase
                              ~object_id:o.Obj_.id ~region:src
                              (Printf.sprintf
                                 "cross-region reference to region %d outside \
                                  the Union-Find group" dst)
                    end
                | Obj_.Freed ->
                    add t ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
                      ~region:src
                      (Printf.sprintf "H2 object references freed object #%d"
                         c.Obj_.id)
                | Obj_.In_h2 | Obj_.Eden | Obj_.Survivor | Obj_.Old -> ())
              o)
          rv.H2.view_objects
      end);
  (* Forward-reference coverage: a live H1 resident must never point into
     a reclaimed region — region liveness is driven by exactly these
     references plus the dependency lists (§3.3). *)
  let check_h1 (o : Obj_.t) =
    Obj_.iter_refs
      (fun c ->
        if c.Obj_.loc = Obj_.In_h2 && not (active c.Obj_.h2_region) then
          add t ~rule:Dependency_soundness ~phase ~object_id:o.Obj_.id
            ~region:c.Obj_.h2_region
            "H1 object holds a forward reference into a reclaimed region")
      o
  in
  Vec.iter check_h1 heap.H1_heap.eden;
  Vec.iter check_h1 heap.H1_heap.survivor;
  Vec.iter check_h1 heap.H1_heap.old_objs

(* ------------------------------------------------------------------ *)
(* Rule 4: region and space accounting                                 *)

let align8 n = (n + 7) land lnot 7

let check_accounting t phase =
  let heap = t.rt.Rt.heap in
  (* [unrecorded] is the space's bytes that have no record: eden's
     dead-on-arrival allocations. *)
  let sum_space name vec expected_loc used ~unrecorded by_footprint =
    let sum = ref unrecorded in
    Vec.iter
      (fun (o : Obj_.t) ->
        if o.Obj_.loc <> expected_loc then
          add t ~rule:Region_accounting ~phase ~object_id:o.Obj_.id
            (Printf.sprintf "%s vector holds an object located elsewhere" name)
        else
          sum :=
            !sum + (if by_footprint then Obj_.footprint o else Obj_.total_size o))
      vec;
    if !sum <> used then
      add t ~rule:Region_accounting ~phase
        (Printf.sprintf "%s accounting: used=%d, object sum=%d" name used !sum)
  in
  sum_space "eden" heap.H1_heap.eden Obj_.Eden heap.H1_heap.eden_used
    ~unrecorded:heap.H1_heap.dead_young_bytes false;
  sum_space "survivor" heap.H1_heap.survivor Obj_.Survivor
    heap.H1_heap.survivor_used ~unrecorded:0 false;
  sum_space "old" heap.H1_heap.old_objs Obj_.Old heap.H1_heap.old_used
    ~unrecorded:0 true;
  (* The census recomputes H1 composition from scratch; its total must
     match an independent sum over the space vectors plus the
     dead-on-arrival bytes. *)
  let census = Heap_census.of_runtime t.rt in
  let vec_total =
    let s = ref heap.H1_heap.dead_young_bytes in
    let addv (o : Obj_.t) = s := !s + Obj_.total_size o in
    Vec.iter addv heap.H1_heap.eden;
    Vec.iter addv heap.H1_heap.survivor;
    Vec.iter addv heap.H1_heap.old_objs;
    !s
  in
  if Heap_census.total_bytes census <> vec_total then
    add t ~rule:Region_accounting ~phase
      (Printf.sprintf "heap census total %d disagrees with space vectors %d"
         (Heap_census.total_bytes census) vec_total);
  match t.rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      let cfg = H2.config h2 in
      let top_sum = ref 0 in
      H2.iter_region_views h2 (fun (rv : H2.region_view) ->
          let region = rv.H2.view_idx in
          if rv.H2.view_label >= 0 then begin
            top_sum := !top_sum + rv.H2.view_top;
            (* Replay the bump allocator over the address-ordered object
               vector: addresses and the allocation pointer must agree. *)
            let expected = ref 0 in
            Vec.iter
              (fun (o : Obj_.t) ->
                if o.Obj_.loc <> Obj_.In_h2 then
                  add t ~rule:Region_accounting ~phase ~object_id:o.Obj_.id
                    ~region "region vector holds an object not located in H2"
                else begin
                  if o.Obj_.h2_region <> region then
                    add t ~rule:Region_accounting ~phase ~object_id:o.Obj_.id
                      ~region "region vector holds an object of another region";
                  if o.Obj_.addr <> !expected then
                    add t ~rule:Region_accounting ~phase ~object_id:o.Obj_.id
                      ~region
                      (Printf.sprintf
                         "object address %d breaks the bump sequence \
                          (expected %d)" o.Obj_.addr !expected);
                  expected := !expected + align8 (Obj_.total_size o)
                end)
              rv.H2.view_objects;
            if !expected <> rv.H2.view_top then
              add t ~rule:Region_accounting ~phase ~region
                (Printf.sprintf "region top %d, object sum %d" rv.H2.view_top
                   !expected);
            if rv.H2.view_top > cfg.H2.region_size then
              add t ~rule:Region_accounting ~phase ~region
                "allocation pointer beyond the region size"
          end
          else begin
            if
              rv.H2.view_top <> 0
              || Vec.length rv.H2.view_objects <> 0
              || rv.H2.view_deps <> []
            then
              add t ~rule:Region_accounting ~phase ~region
                "reclaimed region retains objects, space or dependencies";
            if rv.H2.view_live then
              add t ~rule:Region_accounting ~phase ~region
                "reclaimed region carries a live bit"
          end);
      if H2.used_bytes h2 <> !top_sum then
        add t ~rule:Region_accounting ~phase
          (Printf.sprintf "H2 used_bytes %d disagrees with region tops %d"
             (H2.used_bytes h2) !top_sum);
      List.iter
        (fun r ->
          if H2.label_of_region h2 ~region:r >= 0 then
            add t ~rule:Region_accounting ~phase ~region:r
              "free-list region carries a label")
        (H2.free_region_list h2)

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
  (match t.rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      check_h2_cards t phase h2;
      check_deps t phase h2);
  check_accounting t phase;
  if t.level = Paranoid then check_reachability t phase;
  check_conservation t phase

let phase_of_safepoint = function
  | Rt.Before_minor -> Before_minor
  | Rt.After_minor -> After_minor
  | Rt.Before_major -> Before_major
  | Rt.After_major -> After_major

let check_now t = run_checks t Manual

let attach rt level =
  let t = { rt; level; violations = Vec.create (); last = None } in
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

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module Card_table = Th_minijvm.Card_table
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module Policy = Th_policy.Policy

(* ------------------------------------------------------------------ *)
(* Trace spans. Span-end events carry the collector's own measured
   duration ([Clock.sub] category deltas) rather than leaving readers to
   difference the begin/end timestamps: now_ns is a four-category sum, so
   a wall delta can differ from the category delta in the last float
   bits, and {!Th_trace.Rollup} must reproduce {!Gc_stats} exactly.      *)

let trace_span_begin (rt : Rt.t) ~name =
  match Clock.tracer rt.Rt.clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.span_begin tr
        ~ts:(Clock.now_ns rt.Rt.clock)
        ~cat:"gc" ~name ()

let trace_span_end (rt : Rt.t) ~name args =
  match Clock.tracer rt.Rt.clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.span_end tr
        ~ts:(Clock.now_ns rt.Rt.clock)
        ~cat:"gc" ~name ~args ()

let trace_instant (rt : Rt.t) ~cat ~name args =
  match Clock.tracer rt.Rt.clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.instant tr
        ~ts:(Clock.now_ns rt.Rt.clock)
        ~cat ~name ~args ()

(* Feed the placement policy. Observations are host-side bookkeeping
   only: no simulated time is charged and no trace events are emitted,
   so a policy that ignores them (the default) leaves every run
   bit-identical to the pre-policy collector. *)
let observe (rt : Rt.t) ev = rt.Rt.policy.Policy.observe ev

(* A labelled object died (swept in H1, or its H2 region was
   reclaimed): tell the policy, so lifetime profiles can close the
   tag-to-death interval. Unlabelled objects are invisible to
   placement and not reported. *)
let note_death (rt : Rt.t) (o : Obj_.t) =
  if o.Obj_.label >= 0 then
    observe rt
      (Policy.Death
         {
           label = o.Obj_.label;
           site = o.Obj_.site;
           bytes = Obj_.total_size o;
         })

(* ------------------------------------------------------------------ *)
(* Allocation-free tracing                                             *)

(* The collectors visit every reference with direct loops over
   [refs]/[nrefs] instead of [Obj_.iter_refs] closures, and charge
   simulated time with per-collection constants: each is computed once,
   with the exact expression its per-object charge used to evaluate, and
   passed to [Clock.advance] as the same boxed float every time. The
   simulated float additions are unchanged, one by one and in order.
   The host allocates nothing per reference visited; per object, only
   the byte-proportional copy charges still box their value. *)

(* [per_gen rt f] evaluates [f] once for each generation multiplier of
   the cost profile and returns the selector by object location: young
   objects pay [f young_mult], old ones [f old_mult], anything else
   [f 1.0]. *)
let per_gen (rt : Rt.t) f =
  let p = rt.Rt.profile in
  let young = f p.Cost_profile.young_mult in
  let old = f p.Cost_profile.old_mult in
  let other = f 1.0 in
  fun (o : Obj_.t) ->
    match o.Obj_.loc with
    | Obj_.Eden | Obj_.Survivor -> young
    | Obj_.Old -> old
    | Obj_.In_h2 | Obj_.Freed -> other

(* Whether an object at a position in [lo, hi) of [objs] references a
   young object. *)
let rec young_ref_in objs lo hi =
  lo < hi
  && (Obj_.has_young_ref (Vec.get objs lo) || young_ref_in objs (lo + 1) hi)

(* ------------------------------------------------------------------ *)
(* Minor GC                                                            *)

let minor_gc (rt : Rt.t) =
  let heap = rt.Rt.heap in
  let costs = rt.Rt.costs in
  let clock = rt.Rt.clock in
  let cards = heap.H1_heap.cards in
  let old_objs = heap.H1_heap.old_objs in
  Rt.safepoint rt Rt.Before_minor;
  let t0 = Clock.breakdown clock in
  trace_span_begin rt ~name:"minor_gc";
  rt.Rt.in_gc <- true;
  rt.Rt.mark_epoch <- rt.Rt.mark_epoch + 1;
  let epoch = rt.Rt.mark_epoch in
  Rt.charge rt Clock.Minor_gc costs.Costs.gc_pause_overhead_ns;
  (* Minor-GC work divides over the parallel GC threads. *)
  let par ns = Costs.parallel costs ~threads:costs.Costs.gc_threads ns in
  let trace_ref = par costs.Costs.trace_ref_ns in
  let card_object =
    par (costs.Costs.card_obj_scan_ns *. rt.Rt.profile.Cost_profile.old_mult)
  in
  let mark_object = per_gen rt (fun m -> par (costs.Costs.mark_obj_ns *. m)) in
  let worklist = Vec.create () in
  let live_young = Vec.create () in
  let push_young (o : Obj_.t) =
    if Obj_.is_young o && o.Obj_.mark <> epoch then begin
      o.Obj_.mark <- epoch;
      Vec.push live_young o;
      Vec.push worklist o
    end
  in
  let scan_refs (o : Obj_.t) =
    for i = 0 to o.Obj_.nrefs - 1 do
      Clock.advance clock Clock.Minor_gc trace_ref;
      push_young o.Obj_.refs.(i)
    done
  in
  (* Task 1: scan roots. Stack and static slots reference objects
     directly; the fields of non-young root objects are scanned as part of
     root processing. *)
  Roots.iter
    (fun o ->
      Clock.advance clock Clock.Minor_gc trace_ref;
      push_young o;
      if not (Obj_.is_young o) then scan_refs o)
    rt.Rt.roots;
  (* Task 2: scan H1 dirty cards for old-to-young references. The
     simulated cost (checking every card entry, then examining each
     object of a dirty card) is identical in both modes; the modes differ
     only in how much *host* work finds those objects. The card index
     visits each dirty card's run of the address-sorted old generation
     directly — O(dirty objects) — where the linear oracle sweeps the
     whole old generation. Both visit the same objects in the same
     (address) order, and both record the scanned cards in ascending
     order, each once. *)
  Clock.advance clock Clock.Minor_gc
    (par
       (float_of_int (Card_table.num_cards cards) *. costs.Costs.card_scan_ns));
  let scanned_cards = Vec.create () in
  let scan_card_object (o : Obj_.t) =
    Clock.advance clock Clock.Minor_gc card_object;
    scan_refs o
  in
  (match rt.Rt.rset_mode with
  | Rt.Card_index ->
      Card_table.iter_dirty_ranges cards (fun card lo hi ->
          Vec.push scanned_cards card;
          for i = lo to hi - 1 do
            scan_card_object (Vec.get old_objs i)
          done)
  | Rt.Linear_scan ->
      Vec.iter
        (fun (o : Obj_.t) ->
          let card = Card_table.card_of_addr cards o.Obj_.addr in
          if Card_table.is_dirty cards ~card then begin
            let n = Vec.length scanned_cards in
            if n = 0 || Vec.get scanned_cards (n - 1) <> card then
              Vec.push scanned_cards card;
            scan_card_object o
          end)
        old_objs);
  (* Task 3 (TeraHeap): scan the H2 card table; backward references keep
     H1 young objects alive and must be adjusted after the copy. *)
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 -> H2.scan_cards_minor h2 ~on_object:scan_refs);
  (* Task 4: transitive trace within the young generation. The reference
     range check fences the trace from crossing into H2. *)
  while not (Vec.is_empty worklist) do
    let o = Vec.pop_last worklist in
    Clock.advance clock Clock.Minor_gc (mark_object o);
    scan_refs o
  done;
  (* Task 5: copy live young objects; promote mature or overflowing ones. *)
  let needs_major = ref false in
  let promoted = Vec.create () in
  Vec.iter
    (fun (o : Obj_.t) ->
      o.Obj_.age <- o.Obj_.age + 1;
      let bytes = Obj_.total_size o in
      Clock.advance clock Clock.Minor_gc
        (par
           (float_of_int bytes *. costs.Costs.copy_byte_ns
           *. rt.Rt.profile.Cost_profile.young_mult));
      let must_promote =
        o.Obj_.age >= heap.H1_heap.tenure_threshold
        || heap.H1_heap.survivor_used + bytes > heap.H1_heap.survivor_capacity
      in
      if must_promote then begin
        match H1_heap.old_alloc_addr heap bytes with
        | Some addr ->
            H1_heap.promote heap o ~addr;
            Vec.push promoted o
        | None ->
            (* Promotion failure: keep the object in the survivor space
               (overflow) and request a full collection. *)
            needs_major := true;
            H1_heap.to_survivor heap o
      end
      else H1_heap.to_survivor heap o)
    live_young;
  (* Sweep dead young objects and rebuild the space vectors. Dead-on-
     arrival allocations have no records; they are released in one step
     (unlabelled, so [note_death] would ignore them anyway). *)
  Vec.iter
    (fun (o : Obj_.t) ->
      if o.Obj_.loc = Obj_.Eden then begin
        note_death rt o;
        H1_heap.free_object heap o
      end)
    heap.H1_heap.eden;
  Vec.clear heap.H1_heap.eden;
  H1_heap.free_dead_young heap;
  Vec.filter_in_place
    (fun (o : Obj_.t) ->
      if o.Obj_.loc = Obj_.Survivor && o.Obj_.mark <> epoch then begin
        note_death rt o;
        H1_heap.free_object heap o;
        false
      end
      else o.Obj_.loc = Obj_.Survivor)
    heap.H1_heap.survivor;
  (* Recompute the H1 cards that were scanned: clean unless some old
     object in the card still references a young object. Promoted objects
     may now hold young references, so their cards become dirty. *)
  (match rt.Rt.rset_mode with
  | Rt.Card_index ->
      (* Objects promoted in Task 5 are already indexed, so a scanned
         card's run holds exactly the old objects the linear sweep would
         attribute to it. *)
      Vec.iter
        (fun card ->
          if
            not
              (young_ref_in old_objs
                 (Card_table.start_index cards ~card)
                 (Card_table.start_index cards ~card:(card + 1)))
          then Card_table.clear_card cards ~card)
        scanned_cards
  | Rt.Linear_scan ->
      (* One merge pass: both the old generation and the scanned cards
         are in ascending card order. [found] says whether the scanned
         card at [next] holds an object with a young reference. *)
      let next = ref 0 and found = ref false in
      let finish_card () =
        if not !found then
          Card_table.clear_card cards ~card:(Vec.get scanned_cards !next);
        incr next;
        found := false
      in
      Vec.iter
        (fun (o : Obj_.t) ->
          let card = Card_table.card_of_addr cards o.Obj_.addr in
          while
            !next < Vec.length scanned_cards
            && Vec.get scanned_cards !next < card
          do
            finish_card ()
          done;
          if
            !next < Vec.length scanned_cards
            && Vec.get scanned_cards !next = card
            && (not !found) && Obj_.has_young_ref o
          then found := true)
        old_objs;
      while !next < Vec.length scanned_cards do
        finish_card ()
      done);
  Vec.iter
    (fun (o : Obj_.t) ->
      if Obj_.has_young_ref o then
        Card_table.mark_dirty cards ~addr:o.Obj_.addr)
    promoted;
  (* Adjust H2 card states now that targets have moved (§3.4). *)
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 -> H2.recompute_card_states h2 ~major:false);
  rt.Rt.in_gc <- false;
  let d = Clock.sub (Clock.breakdown clock) t0 in
  Gc_stats.record rt.Rt.stats
    (Gc_stats.Minor
       { at_ns = Clock.now_ns clock; duration_ns = d.Clock.minor_gc_ns });
  Gc_stats.record_occupancy rt.Rt.stats ~at_ns:(Clock.now_ns clock)
    (H1_heap.old_occupancy heap);
  trace_span_end rt ~name:"minor_gc"
    [ ("dur_ns", Th_trace.Event.Float d.Clock.minor_gc_ns) ];
  Rt.safepoint rt Rt.After_minor;
  !needs_major

(* ------------------------------------------------------------------ *)
(* Major GC                                                            *)

(* Work that is single-threaded under PS (OpenJDK8 old-generation
   collection) but parallel under the JDK11/G1 variants. *)
let major_charge rt ns =
  let threads = Rt.major_threads rt in
  (* G1 performs most of its marking concurrently with the mutator; only
     about half of the work lands in a pause (remark/cleanup). *)
  let ns =
    match rt.Rt.collector with Rt.G1 -> ns *. 0.5 | Rt.Ps | Rt.Ps_jdk11 -> ns
  in
  Costs.parallel rt.Rt.costs ~threads ns

let charge_major rt ns = Rt.charge rt Clock.Major_gc (major_charge rt ns)

let g1_skip_copy rt (o : Obj_.t) =
  (* G1 never evacuates humongous objects; mixed collections also copy
     only a subset of regions. The subset factor is applied at the charge
     site; humongous objects are skipped entirely. *)
  rt.Rt.collector = Rt.G1
  && o.Obj_.kind = Obj_.Array_data
  && Obj_.total_size o > rt.Rt.g1_region_size / 2

let g1_copy_factor rt =
  match rt.Rt.collector with Rt.G1 -> 0.35 | Rt.Ps | Rt.Ps_jdk11 -> 1.0

let major_gc (rt : Rt.t) =
  let heap = rt.Rt.heap in
  let costs = rt.Rt.costs in
  let clock = rt.Rt.clock in
  let advance ns = Clock.advance clock Clock.Major_gc ns in
  Rt.safepoint rt Rt.Before_major;
  rt.Rt.in_gc <- true;
  rt.Rt.mark_epoch <- rt.Rt.mark_epoch + 1;
  let epoch = rt.Rt.mark_epoch in
  Rt.charge rt Clock.Major_gc costs.Costs.gc_pause_overhead_ns;
  (* Escape hatch: if the old generation is already past the high
     threshold when this collection starts (a large allocation burst since
     the last cycle), escalate to a pressure move now rather than risk an
     OOM before the "next major GC" the paper's policy nominally uses. *)
  (match rt.Rt.h2 with
  | Some h2 when rt.Rt.pressure = Rt.No_pressure ->
      if H1_heap.old_occupancy heap > H2.high_threshold h2 then
        rt.Rt.pressure <-
          (match H2.low_threshold h2 with
          | Some _ -> Rt.Move_until_low
          | None -> Rt.Move_all_tagged)
  | Some _ | None -> ());
  let t0 = Clock.breakdown rt.Rt.clock in
  trace_span_begin rt ~name:"major_gc";
  let phase_delta prev =
    let d = Clock.sub (Clock.breakdown rt.Rt.clock) prev in
    (d.Clock.major_gc_ns, Clock.breakdown rt.Rt.clock)
  in
  trace_span_begin rt ~name:"marking";
  (* Charge constants (see "Allocation-free tracing" above). *)
  let trace_ref = major_charge rt costs.Costs.trace_ref_ns in
  let trace_ref_of =
    per_gen rt (fun m -> major_charge rt (costs.Costs.trace_ref_ns *. m))
  in
  let mark_object =
    per_gen rt (fun m -> major_charge rt (costs.Costs.mark_obj_ns *. m))
  in
  let half_mark = major_charge rt (costs.Costs.mark_obj_ns *. 0.5) in

  (* --- Phase 1: marking ------------------------------------------- *)
  (match rt.Rt.h2 with None -> () | Some h2 -> H2.clear_live_bits h2);
  let worklist = Vec.create () in
  let live = Vec.create () in
  let backward_refs = ref 0 in
  let push (o : Obj_.t) =
    match o.Obj_.loc with
    | Obj_.In_h2 ->
        (* Forward reference (H1 to H2): fence, set the region live bit. *)
        (match rt.Rt.h2 with
        | Some h2 -> H2.mark_live_from_h1 h2 o
        | None ->
            Rt.invalid_heap_state ~object_id:o.Obj_.id
              ~phase:"major marking: In_h2 object without an H2 heap")
    | Obj_.Freed -> ()
    | Obj_.Eden | Obj_.Survivor | Obj_.Old ->
        if o.Obj_.mark <> epoch then begin
          o.Obj_.mark <- epoch;
          Vec.push live o;
          Vec.push worklist o
        end
  in
  (* Mark H1 objects referenced by H2 as live (backward references). *)
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      H2.scan_cards_major h2 ~on_object:(fun (o : Obj_.t) ->
          for i = 0 to o.Obj_.nrefs - 1 do
            let c = o.Obj_.refs.(i) in
            if Obj_.is_in_h1 c then begin
              incr backward_refs;
              advance trace_ref;
              push c
            end
          done));
  Roots.iter
    (fun o ->
      advance trace_ref;
      push o)
    rt.Rt.roots;
  while not (Vec.is_empty worklist) do
    let o = Vec.pop_last worklist in
    advance (mark_object o);
    let per_ref = trace_ref_of o in
    for i = 0 to o.Obj_.nrefs - 1 do
      advance per_ref;
      push o.Obj_.refs.(i)
    done
  done;
  let live_bytes =
    Vec.fold_left (fun acc o -> acc + Obj_.total_size o) 0 live
  in
  (* TeraHeap marking extras: identify labelled roots, compute transitive
     closures, and free dead regions (§4). *)
  (* Move candidates with their policy group keys, as parallel vectors. *)
  let move_objs = Vec.create () in
  let move_groups = Vec.create () in
  let regions_freed_now = ref 0 in
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      observe rt (Policy.Major_start { epoch });
      rt.Rt.closure_epoch <- rt.Rt.closure_epoch + 1;
      let cepoch = rt.Rt.closure_epoch in
      let cfg = H2.config h2 in
      (* After a full collection every live H1 object sits in the old
         generation, so thresholds are fractions of old-gen capacity. *)
      let old_capacity = heap.H1_heap.old_capacity in
      (* Pressure-forced moves of objects whose h2_move hint has not been
         seen yet stop at a budget: the low threshold when configured,
         otherwise the high threshold — except with hints disabled
         entirely ("NH"), where everything marked moves (§3.2, §7.2). *)
      let unadvised_target =
        match rt.Rt.pressure with
        | Rt.No_pressure -> None
        | Rt.Move_until_low -> (
            match H2.low_threshold h2 with
            | Some low -> Some (Some low)
            | None -> Some None)
        | Rt.Move_all_tagged ->
            if cfg.H2.use_move_hint then Some (Some (H2.high_threshold h2))
            else Some None
      in
      let moved_budget_exhausted moved =
        match unadvised_target with
        | None | Some None -> false
        | Some (Some target) ->
            float_of_int (live_bytes - moved)
            <= target *. float_of_int old_capacity
      in
      let moved = ref 0 in
      (* Breadth-first so that the H2 placement order matches the order
         frameworks later stream the group in (root, then elements).
         [group] is the policy's region-bucket key, carried alongside
         each candidate into precompaction; the object's site follows
         its root so lifetime profiles attribute closure members to the
         tag site. *)
      let queue = Vec.create () in
      let closure_of (root : Obj_.t) label group =
        let site = root.Obj_.site in
        Vec.clear queue;
        Vec.push queue root;
        let head = ref 0 in
        while !head < Vec.length queue do
          let o = Vec.get queue !head in
          incr head;
          if
            o.Obj_.closure_mark <> cepoch
            && Obj_.is_in_h1 o
            && o.Obj_.mark = epoch
            && not (Obj_.excluded_from_closure o)
          then begin
            o.Obj_.closure_mark <- cepoch;
            o.Obj_.label <- label;
            o.Obj_.site <- site;
            moved := !moved + Obj_.total_size o;
            Vec.push move_objs o;
            Vec.push move_groups group;
            for i = 0 to o.Obj_.nrefs - 1 do
              advance trace_ref;
              Vec.push queue o.Obj_.refs.(i)
            done
          end
        done
      in
      (* The placement policy picks which tagged roots move and in what
         order; the collector keeps every validity guard (label, mark,
         closure-mark) and the pressure budget, so a policy chooses
         among safe moves but cannot invent unsafe ones. [Advised]
         picks move unconditionally (their groups are immutable);
         [Budgeted] picks — possibly still mutable, so moving them
         costs device read-modify-writes later — stop at the budget.
         No explicit un-tagging: once moved, a root's location becomes
         [In_h2] and the tagged list self-cleans on its next traversal
         (a per-root removal here would be quadratic). *)
      let tagged = H2.tagged_roots h2 in
      (* The resilience gate is sampled exactly once per cycle: an open
         circuit breaker suppresses the whole move phase, leaving every
         tagged root in H1 to be retried (or serialized off-heap by the
         driver) later. Region reclamation below still runs — freeing
         dead H2 regions needs no new device writes. *)
      if Rt.h2_moves_allowed rt then begin
        let ctx =
          {
            Policy.epoch;
            pressure =
              (match rt.Rt.pressure with
              | Rt.No_pressure -> Policy.No_pressure
              | Rt.Move_all_tagged -> Policy.Move_all_tagged
              | Rt.Move_until_low -> Policy.Move_until_low);
            live_bytes;
            old_capacity;
            h2;
          }
        in
        let picks = rt.Rt.policy.Policy.select ctx ~roots:tagged in
        List.iter
          (fun (p : Policy.pick) ->
            let root = p.Policy.root in
            let label = root.Obj_.label in
            if label >= 0 && root.Obj_.mark = epoch then begin
              let before = !moved in
              (match p.Policy.cls with
              | Policy.Advised -> closure_of root label p.Policy.group
              | Policy.Budgeted ->
                  if
                    root.Obj_.closure_mark <> cepoch
                    && not (moved_budget_exhausted !moved)
                  then closure_of root label p.Policy.group);
              if !moved > before then
                observe rt
                  (Policy.Moved
                     {
                       label;
                       site = root.Obj_.site;
                       bytes = !moved - before;
                     })
            end)
          picks;
        if rt.Rt.policy.Policy.trace_decisions then
          trace_instant rt ~cat:"policy" ~name:"select"
            [
              ("policy", Th_trace.Event.Str rt.Rt.policy.Policy.name);
              ("picks", Th_trace.Event.Int (List.length picks));
              ("moved_bytes", Th_trace.Event.Int !moved);
            ]
      end
      else begin
        let pending =
          List.length
            (List.filter
               (fun (root : Obj_.t) ->
                 root.Obj_.label >= 0 && root.Obj_.mark = epoch)
               tagged)
        in
        trace_instant rt ~cat:"h2" ~name:"moves_suppressed"
          [ ("tagged_roots", Th_trace.Event.Int pending) ]
      end;
      regions_freed_now :=
        H2.free_dead_regions h2 ~on_free:(fun o ->
            note_death rt o;
            o.Obj_.loc <- Obj_.Freed));
  let marking_ns, t1 = phase_delta t0 in
  trace_span_end rt ~name:"marking"
    [ ("dur_ns", Th_trace.Event.Float marking_ns) ];
  trace_span_begin rt ~name:"precompact";

  (* --- Phase 2: precompaction -------------------------------------- *)
  (* Place move candidates in H2 regions keyed by label, then assign
     sliding-compaction addresses to the H1 survivors. *)
  (* Graceful degradation: running out of H2 space mid-compaction no
     longer aborts the run. The remaining candidates stay in H1 — their
     location and mark are untouched, so the normal compaction paths
     below keep them — and, since a tagged root self-cleans only once
     moved, the whole group is retried at the next major GC. *)
  let moved = Vec.create () in
  let moved_from = Vec.create () in
  let deferred_objs = Vec.create () in
  let h2_full = ref false in
  Vec.iteri
    (fun i (o : Obj_.t) ->
      match rt.Rt.h2 with
      | None ->
          Rt.invalid_heap_state ~object_id:o.Obj_.id
            ~phase:"precompaction: move candidate without an H2 heap"
      | Some h2 ->
          if !h2_full then Vec.push deferred_objs o
          else begin
            advance half_mark;
            let loc = o.Obj_.loc in
            match
              H2.alloc h2 ~group:(Vec.get move_groups i) o ~label:o.Obj_.label
            with
            | () ->
                Vec.push moved_from loc;
                Vec.push moved o
            | exception H2.Out_of_h2_space ->
                h2_full := true;
                Vec.push deferred_objs o
          end)
    move_objs;
  (match (rt.Rt.h2, !h2_full) with
  | Some h2, true ->
      H2.note_move_degraded h2 ~objects:(Vec.length deferred_objs);
      (* Re-tag the leftovers: their group root may itself have moved
         (self-cleaning off the tagged list), in which case nothing else
         would bring them to H2 at the next major GC. *)
      let listed = Hashtbl.create 64 in
      List.iter
        (fun (o : Obj_.t) -> Hashtbl.replace listed o.Obj_.id ())
        (H2.tagged_roots h2);
      Vec.iter
        (fun (o : Obj_.t) ->
          if not (Hashtbl.mem listed o.Obj_.id) then H2.retag_deferred h2 o)
        deferred_objs
  | (Some _ | None), _ -> ());
  let new_top = ref 0 in
  let assign (o : Obj_.t) =
    advance half_mark;
    o.Obj_.new_addr <- !new_top;
    (* Live humongous objects keep pinning their region slack: G1 never
       moves them. *)
    new_top := !new_top + Obj_.footprint o
  in
  Vec.iter
    (fun (o : Obj_.t) ->
      if o.Obj_.mark = epoch && o.Obj_.loc = Obj_.Old then assign o)
    heap.H1_heap.old_objs;
  (* PS full collections tenure all young survivors into the old gen. *)
  let promoted_young = Vec.create () in
  let collect_young (o : Obj_.t) =
    if o.Obj_.mark = epoch && Obj_.is_young o then begin
      assign o;
      Vec.push promoted_young o
    end
  in
  Vec.iter collect_young heap.H1_heap.eden;
  Vec.iter collect_young heap.H1_heap.survivor;
  let precompact_ns, t2 = phase_delta t1 in
  trace_span_end rt ~name:"precompact"
    [ ("dur_ns", Th_trace.Event.Float precompact_ns) ];
  trace_span_begin rt ~name:"adjust";

  (* --- Phase 3: pointer adjustment --------------------------------- *)
  Vec.iter
    (fun (o : Obj_.t) ->
      if Obj_.is_in_h1 o then begin
        let per_ref = trace_ref_of o in
        for _ = 1 to o.Obj_.nrefs do
          advance per_ref
        done
      end)
    live;
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      (* Adjust backward references to the new H1 locations. *)
      charge_major rt
        (float_of_int !backward_refs *. costs.Costs.trace_ref_ns);
      (* For each moved object: record new cross-region references and
         newly-created backward references (§4, pointer adjustment). *)
      Vec.iter
        (fun (o : Obj_.t) ->
          for i = 0 to o.Obj_.nrefs - 1 do
            let c = o.Obj_.refs.(i) in
            advance trace_ref;
            match c.Obj_.loc with
            | Obj_.In_h2 ->
                if c.Obj_.h2_region <> o.Obj_.h2_region then
                  H2.add_dependency h2 ~src_region:o.Obj_.h2_region
                    ~dst_region:c.Obj_.h2_region
            | Obj_.Eden | Obj_.Survivor | Obj_.Old -> H2.note_backward_ref h2 o
            | Obj_.Freed -> ()
          done)
        moved);
  let adjust_ns, t3 = phase_delta t2 in
  trace_span_end rt ~name:"adjust"
    [ ("dur_ns", Th_trace.Event.Float adjust_ns) ];
  trace_span_begin rt ~name:"compact";

  (* --- Phase 4: compaction ------------------------------------------ *)
  (* Account the H1 space vacated by objects that moved to H2. *)
  Vec.iteri
    (fun i (o : Obj_.t) ->
      let bytes = Obj_.total_size o in
      match Vec.get moved_from i with
      | Obj_.Eden -> heap.H1_heap.eden_used <- heap.H1_heap.eden_used - bytes
      | Obj_.Survivor ->
          heap.H1_heap.survivor_used <- heap.H1_heap.survivor_used - bytes
      | Obj_.Old -> heap.H1_heap.old_used <- heap.H1_heap.old_used - bytes
      | Obj_.In_h2 | Obj_.Freed ->
          Rt.invalid_heap_state ~object_id:o.Obj_.id
            ~phase:"compaction: moved object recorded with a non-H1 origin")
    moved;
  (* Slide live old objects and copy young survivors into the old gen.
     Filtering [old_objs] in place keeps it address-sorted and re-indexes
     it as it goes. *)
  let copy_factor = g1_copy_factor rt in
  H1_heap.filter_old heap (fun (o : Obj_.t) ->
      if o.Obj_.mark = epoch && o.Obj_.loc = Obj_.Old then begin
        if not (g1_skip_copy rt o) then
          charge_major rt
            (float_of_int (Obj_.total_size o)
            *. costs.Costs.copy_byte_ns
            *. rt.Rt.profile.Cost_profile.old_mult
            *. copy_factor);
        o.Obj_.addr <- o.Obj_.new_addr;
        true
      end
      else begin
        if o.Obj_.loc = Obj_.Old then begin
          note_death rt o;
          H1_heap.free_object heap o
        end;
        false
      end);
  let tenure (o : Obj_.t) =
    let bytes = Obj_.total_size o in
    charge_major rt
      (float_of_int bytes *. costs.Costs.copy_byte_ns
      *. rt.Rt.profile.Cost_profile.young_mult);
    H1_heap.promote heap o ~addr:o.Obj_.new_addr;
    o.Obj_.age <- heap.H1_heap.tenure_threshold
  in
  Vec.iter tenure promoted_young;
  (* Sweep the young spaces, dead-on-arrival allocations included. *)
  Vec.iter
    (fun (o : Obj_.t) ->
      if o.Obj_.loc = Obj_.Eden then begin
        note_death rt o;
        H1_heap.free_object heap o
      end)
    heap.H1_heap.eden;
  Vec.clear heap.H1_heap.eden;
  H1_heap.free_dead_young heap;
  Vec.iter
    (fun (o : Obj_.t) ->
      if o.Obj_.loc = Obj_.Survivor then begin
        note_death rt o;
        H1_heap.free_object heap o
      end)
    heap.H1_heap.survivor;
  Vec.clear heap.H1_heap.survivor;
  heap.H1_heap.old_top <- !new_top;
  heap.H1_heap.old_used <- !new_top;
  (* Write the moved objects out to H2 in promotion-buffer batches. *)
  let bytes_moved =
    Vec.fold_left (fun acc o -> acc + Obj_.total_size o) 0 moved
  in
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      H2.flush_promotion_buffers h2;
      H2.recompute_card_states h2 ~major:true);
  (* The full collection leaves no old-to-young references. *)
  Card_table.clear_all heap.H1_heap.cards;
  (* Release the dead objects still referenced by the space vectors'
     backing arrays. The object-start index is already exact: the filter
     above and the tenuring promotions fed it in address order. *)
  H1_heap.compact_after_major heap;
  let compact_ns, _ = phase_delta t3 in
  trace_span_end rt ~name:"compact"
    [ ("dur_ns", Th_trace.Event.Float compact_ns) ];

  (* --- Epilogue ----------------------------------------------------- *)
  let regions_freed = !regions_freed_now in
  (* High/low-threshold policy for the next cycle (§3.2). *)
  (match rt.Rt.h2 with
  | None -> ()
  | Some h2 ->
      let ratio = H1_heap.old_occupancy heap in
      H2.adapt_thresholds h2 ~live_ratio:ratio;
      if ratio > H2.high_threshold h2 then
        rt.Rt.pressure <-
          (match H2.low_threshold h2 with
          | Some _ -> Rt.Move_until_low
          | None -> Rt.Move_all_tagged)
      else rt.Rt.pressure <- Rt.No_pressure);
  rt.Rt.in_gc <- false;
  let total = Clock.sub (Clock.breakdown rt.Rt.clock) t0 in
  Gc_stats.record rt.Rt.stats
    (Gc_stats.Major
       {
         at_ns = Clock.now_ns rt.Rt.clock;
         duration_ns = total.Clock.major_gc_ns;
         phases =
           {
             Gc_stats.marking_ns;
             precompact_ns;
             adjust_ns;
             compact_ns;
           };
         old_occupancy_after = H1_heap.old_occupancy heap;
         bytes_moved_to_h2 = bytes_moved;
         regions_freed;
       });
  Gc_stats.record_occupancy rt.Rt.stats ~at_ns:(Clock.now_ns rt.Rt.clock)
    (H1_heap.old_occupancy heap);
  (* Close the span before the safepoint and the OOM check: the trace
     keeps a complete cycle even on the path that raises. *)
  trace_span_end rt ~name:"major_gc"
    [
      ("dur_ns", Th_trace.Event.Float total.Clock.major_gc_ns);
      ("bytes_moved", Th_trace.Event.Int bytes_moved);
      ("regions_freed", Th_trace.Event.Int regions_freed);
    ];
  (* Announce the safepoint before the OOM check: a verifier should see
     the post-compaction heap even on the path that raises. *)
  Rt.safepoint rt Rt.After_major;
  if !new_top > heap.H1_heap.old_capacity then
    raise
      (Rt.Out_of_memory
         (Printf.sprintf "live data (%s) exceeds old generation (%s)"
            (Size.to_string !new_top)
            (Size.to_string heap.H1_heap.old_capacity)))

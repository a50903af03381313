(* Tests for the Th_verify heap-state sanitizer.

   Two layers:

   - clean-run properties: the sanitizer attached at every GC safepoint
     (and at Paranoid) must stay silent over randomly generated mutator
     programs, including degraded (H2-exhausted) runs, and must not
     perturb the simulated clock;

   - mutation tests: each class of seeded corruption must be detected
     and named by the right rule id. Deterministic unit tests guarantee
     one real detection per rule; qcheck variants plant the same
     corruption wherever a random program's final state offers the
     precondition (vacuously true otherwise). *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Card_table = Th_minijvm.Card_table
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module H2_card_table = Th_core.H2_card_table
module Runtime = Th_psgc.Runtime
module Device = Th_device.Device
module Verify = Th_verify.Verify

let has_rule v rule =
  List.exists (fun (x : Verify.violation) -> x.Verify.rule = rule)
    (Verify.violations v)

let check_detects v rule =
  Alcotest.(check bool)
    (Printf.sprintf "corruption detected as %s" (Verify.rule_id rule))
    true (has_rule v rule)

(* Same environment as Test_gc_props.execute: 2 MiB H1, 64 KiB regions,
   16 MiB H2. *)
let mk_rt () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 2) () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 =
    H2.create ~config:Test_gc_props.base_config ~clock ~costs ~device
      ~dr2_bytes:(Size.kib 256) ()
  in
  let rt = Runtime.create ~h2 ~clock ~costs ~heap () in
  (rt, h2, clock)

(* Allocate an object, root it and age it past the tenure threshold so
   it sits in the old generation. *)
let make_old rt =
  let o = Runtime.alloc rt ~size:1024 () in
  Runtime.add_root rt o;
  for _ = 1 to 4 do
    Runtime.minor_gc rt
  done;
  Alcotest.(check bool) "precondition: object tenured" true
    (o.Obj_.loc = Obj_.Old);
  o

(* Move a rooted object into H2 under [label] and return it. *)
let make_h2 rt ~label =
  let o = Runtime.alloc rt ~size:1024 () in
  Runtime.add_root rt o;
  Runtime.h2_tag_root rt o ~label;
  Runtime.h2_move rt ~label;
  Runtime.major_gc rt;
  Alcotest.(check bool) "precondition: object moved to H2" true
    (o.Obj_.loc = Obj_.In_h2);
  o

(* ------------------------------------------------------------------ *)
(* Deterministic detection tests: one planted corruption per rule.     *)

(* Each seeded corruption is a scenario returning the verifier that
   checked it: the detection tests assert on its rules, and the report
   golden below pins its full violation list. *)
let scenario_cleared_h1_card () =
  let rt, _, _ = mk_rt () in
  let parent = make_old rt in
  let child = Runtime.alloc rt ~size:64 () in
  Runtime.write_ref rt parent child;
  let cards = (Runtime.heap rt).H1_heap.cards in
  let card = Card_table.card_of_addr cards parent.Obj_.addr in
  Alcotest.(check bool) "precondition: barrier dirtied the card" true
    (Card_table.is_dirty cards ~card);
  Card_table.clear_card cards ~card;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_cleared_h1_card () =
  check_detects (scenario_cleared_h1_card ()) Verify.Rset_completeness

(* Re-index the old generation without the object at position [k], as
   if its object-start entry had been lost: every entry after it then
   points one object too far. *)
let drop_index_entry (heap : H1_heap.t) k =
  let cards = heap.H1_heap.cards in
  Card_table.reset_index cards;
  Vec.iteri
    (fun i (o : Obj_.t) ->
      if i <> k then Card_table.note_object_start cards ~addr:o.Obj_.addr)
    heap.H1_heap.old_objs

let scenario_dropped_rset_index () =
  let rt, _, _ = mk_rt () in
  let _ = make_old rt in
  let _ = make_old rt in
  drop_index_entry (Runtime.heap rt) 0;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_dropped_rset_index () =
  check_detects (scenario_dropped_rset_index ()) Verify.Rset_completeness

(* Same object count, one wrong entry: the first old object is indexed
   under the second one's card, so its own card's range comes out empty. *)
let scenario_misplaced_rset_entry () =
  let rt, _, _ = mk_rt () in
  let a = make_old rt in
  let b = make_old rt in
  let cards = (Runtime.heap rt).H1_heap.cards in
  Alcotest.(check bool) "precondition: objects on different cards" true
    (Card_table.card_of_addr cards a.Obj_.addr
    < Card_table.card_of_addr cards b.Obj_.addr);
  Card_table.reset_index cards;
  Vec.iter
    (fun (o : Obj_.t) ->
      let addr = if o == a then b.Obj_.addr else o.Obj_.addr in
      Card_table.note_object_start cards ~addr)
    (Runtime.heap rt).H1_heap.old_objs;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_misplaced_rset_entry () =
  check_detects (scenario_misplaced_rset_entry ()) Verify.Rset_completeness

let scenario_illegal_h2_card_clean () =
  let rt, h2, _ = mk_rt () in
  let a = make_h2 rt ~label:0 in
  let child = Runtime.alloc rt ~size:64 () in
  Runtime.write_ref rt a child;
  let ct = H2.card_table h2 in
  let cfg = H2.config h2 in
  let gaddr = (a.Obj_.h2_region * cfg.H2.region_size) + a.Obj_.addr in
  let seg = H2_card_table.segment_of ct ~gaddr in
  (* Any state but the two scanned ones fails the precondition — the
     catch-all is the assertion. th-lint: allow catch-all-match *)
  (match H2_card_table.state ct ~seg with
  | H2_card_table.Dirty | H2_card_table.Young_gen -> ()
  | _ -> Alcotest.fail "precondition: backward ref left no scanned card");
  H2_card_table.set_state ct ~seg H2_card_table.Clean;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_illegal_h2_card_clean () =
  check_detects (scenario_illegal_h2_card_clean ()) Verify.H2_card_legality

let scenario_illegal_transition () =
  let rt, h2, _ = mk_rt () in
  let v = Verify.attach rt Verify.Safepoint in
  (* A recompute must never run on a clean card nor target Dirty; this
     does both, and the online hook records it without any check_now. *)
  H2_card_table.set_state (H2.card_table h2) ~seg:0 H2_card_table.Dirty;
  v

let test_detects_illegal_transition () =
  check_detects (scenario_illegal_transition ()) Verify.H2_card_transition

let scenario_removed_dependency () =
  let rt, h2, _ = mk_rt () in
  (* Move a and b separately (a link before the move would drag b into
     a's closure and the same region), then store the cross-region
     reference through the barrier, which records the dependency. *)
  let a = make_h2 rt ~label:0 in
  let b = make_h2 rt ~label:1 in
  Runtime.write_ref rt a b;
  Alcotest.(check bool) "precondition: cross-region H2 edge" true
    (a.Obj_.loc = Obj_.In_h2 && b.Obj_.loc = Obj_.In_h2
    && a.Obj_.h2_region <> b.Obj_.h2_region);
  H2.debug_remove_dependency h2 ~src_region:a.Obj_.h2_region
    ~dst_region:b.Obj_.h2_region;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_removed_dependency () =
  check_detects (scenario_removed_dependency ()) Verify.Dependency_soundness

let scenario_accounting_skew () =
  let rt, _, _ = mk_rt () in
  let _ = make_old rt in
  let heap = Runtime.heap rt in
  heap.H1_heap.old_used <- heap.H1_heap.old_used + 4096;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_accounting_skew () =
  check_detects (scenario_accounting_skew ()) Verify.Region_accounting

(* Eden holds record-free dead-on-arrival bytes: a clean heap with some
   passes, and skewing the dead-young counter is one eden accounting
   violation (the census counts the same skewed bytes, so it still
   agrees with the space sums). *)
let scenario_dead_young_skew () =
  let rt, _, _ = mk_rt () in
  let keep = Runtime.alloc rt ~size:256 () in
  Runtime.add_root rt keep;
  for _ = 1 to 8 do
    Runtime.alloc_dead rt ~size:(Size.kib 4)
  done;
  let heap = Runtime.heap rt in
  Alcotest.(check bool) "precondition: dead-young bytes in eden" true
    (heap.H1_heap.dead_young_bytes > 0);
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  Alcotest.(check int) "clean before tampering" 0 (Verify.violation_count v);
  heap.H1_heap.dead_young_bytes <- heap.H1_heap.dead_young_bytes + 4096;
  Verify.check_now v;
  v

let test_detects_dead_young_skew () =
  Alcotest.(check (list string)) "one region-accounting violation"
    [ Verify.rule_id Verify.Region_accounting ]
    (List.map
       (fun (x : Verify.violation) -> Verify.rule_id x.Verify.rule)
       (Verify.violations (scenario_dead_young_skew ())))

let scenario_freed_reachable () =
  let rt, _, _ = mk_rt () in
  let o = Runtime.alloc rt ~size:256 () in
  Runtime.add_root rt o;
  o.Obj_.loc <- Obj_.Freed;
  let v = Verify.attach rt Verify.Paranoid in
  Verify.check_now v;
  v

let test_detects_freed_reachable () =
  check_detects (scenario_freed_reachable ()) Verify.Reachability;
  (* The census only runs at Paranoid. *)
  let rt2, _, _ = mk_rt () in
  let o2 = Runtime.alloc rt2 ~size:256 () in
  Runtime.add_root rt2 o2;
  o2.Obj_.loc <- Obj_.Freed;
  let v2 = Verify.attach rt2 Verify.Safepoint in
  Verify.check_now v2;
  Alcotest.(check bool) "reachability census skipped at Safepoint" false
    (has_rule v2 Verify.Reachability)

let scenario_clock_reset () =
  let rt, _, clock = mk_rt () in
  let _ = Runtime.alloc rt ~size:1024 () in
  Runtime.minor_gc rt;
  Alcotest.(check bool) "precondition: clock advanced" true
    (Clock.now_ns clock > 0.0);
  let v = Verify.attach rt Verify.Safepoint in
  Verify.check_now v;
  Clock.reset clock;
  Verify.check_now v;
  v

let test_detects_clock_reset () =
  check_detects (scenario_clock_reset ()) Verify.Conservation

let scenario_report_names_rules () =
  let rt, _, _ = mk_rt () in
  let heap = Runtime.heap rt in
  heap.H1_heap.old_used <- heap.H1_heap.old_used + 64;
  let v = Verify.attach rt Verify.Safepoint in
  Verify.check_now v;
  v

let test_report_names_rules () =
  let report = Verify.report (scenario_report_names_rules ()) in
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names the rule" true
    (contains report "region-accounting");
  Alcotest.(check bool) "report names the phase" true (contains report "manual")

(* ------------------------------------------------------------------ *)
(* Clean-run properties over random programs.                          *)

let attach_via_hook level vref rt = vref := Some (Verify.attach rt level)

let finish rt =
  (* Trailing collection so After_minor/After_major safepoints fire on
     the final state too; programs may already be out of memory. *)
  try Runtime.major_gc rt with
  | Runtime.Out_of_memory _ | H2.Out_of_h2_space -> ()

let clean_run ?config level program =
  let vref = ref None in
  let rt, _, _ =
    Test_gc_props.execute ?config ~on_runtime:(attach_via_hook level vref)
      program
  in
  finish rt;
  let v = Option.get !vref in
  Verify.check_now v;
  if Verify.violation_count v > 0 then begin
    Printf.eprintf "%s" (Verify.report v);
    false
  end
  else true

let prop_clean_safepoint =
  QCheck.Test.make ~name:"random programs verify clean at safepoint level"
    ~count:80 Test_gc_props.arbitrary_program (clean_run Verify.Safepoint)

let prop_clean_paranoid =
  QCheck.Test.make ~name:"random programs verify clean at paranoid level"
    ~count:40 Test_gc_props.arbitrary_program (clean_run Verify.Paranoid)

let prop_clean_unaligned =
  QCheck.Test.make
    ~name:"unaligned (sticky-boundary) runs verify clean" ~count:40
    Test_gc_props.arbitrary_program
    (clean_run
       ~config:
         { Test_gc_props.base_config with H2.stripe_aligned = false }
       Verify.Paranoid)

let prop_clean_region_groups =
  QCheck.Test.make ~name:"union-find reclamation runs verify clean" ~count:40
    Test_gc_props.arbitrary_program
    (clean_run
       ~config:
         { Test_gc_props.base_config with H2.reclaim_mode = H2.Region_groups }
       Verify.Paranoid)

(* A single 64 KiB region exhausts almost immediately: the run degrades
   (Out_of_h2_space handled by the collector) yet must stay invariant-
   clean throughout. *)
let prop_degraded_clean =
  QCheck.Test.make ~name:"H2-exhausted (degraded) runs verify clean" ~count:40
    Test_gc_props.arbitrary_program
    (clean_run
       ~config:{ Test_gc_props.base_config with H2.capacity = Size.kib 64 }
       Verify.Safepoint)

(* The sanitizer is observational: attaching it must not change the
   simulated clock or the GC counts. *)
let prop_verifier_pure =
  QCheck.Test.make ~name:"attaching the sanitizer never perturbs the run"
    ~count:60 Test_gc_props.arbitrary_program
    (fun program ->
      let summarize on_runtime =
        let rt, _, _ = Test_gc_props.execute ?on_runtime program in
        let module Gc_stats = Th_psgc.Gc_stats in
        let stats = Runtime.stats rt in
        ( Clock.now_ns (Runtime.clock rt),
          Gc_stats.minor_count stats,
          Gc_stats.major_count stats )
      in
      let vref = ref None in
      summarize None
      = summarize (Some (attach_via_hook Verify.Paranoid vref)))

(* ------------------------------------------------------------------ *)
(* qcheck mutation properties: plant the corruption wherever the final
   state offers the precondition; vacuously true otherwise.            *)

let plant name ~count corrupt =
  QCheck.Test.make ~name ~count Test_gc_props.arbitrary_program
    (fun program ->
      let rt, table, pinned = Test_gc_props.execute program in
      match corrupt rt table pinned with
      | None -> true (* precondition absent *)
      | Some rule ->
          let v = Verify.attach rt Verify.Paranoid in
          Verify.check_now v;
          if has_rule v rule then true
          else begin
            Printf.eprintf "planted %s went undetected\n%!"
              (Verify.rule_id rule);
            false
          end)

let first_in_vec vec pred =
  Vec.fold_left
    (fun acc o -> match acc with Some _ -> acc | None -> pred o)
    None vec

let has_young_ref o =
  let found = ref false in
  Obj_.iter_refs (fun c -> if Obj_.is_young c then found := true) o;
  !found

let prop_plant_card_clear =
  plant "clearing a dirty H1 card is detected" ~count:40 (fun rt _ _ ->
      let heap = Runtime.heap rt in
      let cards = heap.H1_heap.cards in
      first_in_vec heap.H1_heap.old_objs (fun o ->
          if has_young_ref o then begin
            let card = Card_table.card_of_addr cards o.Obj_.addr in
            if Card_table.is_dirty cards ~card then begin
              Card_table.clear_card cards ~card;
              Some Verify.Rset_completeness
            end
            else None
          end
          else None))

let prop_plant_index_drop =
  plant "dropping the remembered-set index is detected" ~count:40
    (fun rt _ _ ->
      let heap = Runtime.heap rt in
      let n = Vec.length heap.H1_heap.old_objs in
      if n = 0 then None
      else begin
        drop_index_entry heap (n / 2);
        Some Verify.Rset_completeness
      end)

let prop_plant_h2_card_clean =
  plant "cleaning a covering H2 card is detected" ~count:40
    (fun rt table _ ->
      match Runtime.h2 rt with
      | None -> None
      | Some h2 ->
          let ct = H2.card_table h2 in
          let cfg = H2.config h2 in
          first_in_vec table (fun o ->
              if o.Obj_.loc = Obj_.In_h2 && has_young_ref o then begin
                let gstart =
                  (o.Obj_.h2_region * cfg.H2.region_size) + o.Obj_.addr
                in
                let seg_size = H2_card_table.segment_size ct in
                let s0 = gstart / seg_size in
                let s1 = (gstart + Obj_.total_size o - 1) / seg_size in
                for s = s0 to min s1 (H2_card_table.num_segments ct - 1) do
                  H2_card_table.set_state ct ~seg:s H2_card_table.Clean
                done;
                Some Verify.H2_card_legality
              end
              else None))

let prop_plant_dep_drop =
  plant "removing a live dependency edge is detected" ~count:40
    (fun rt table _ ->
      match Runtime.h2 rt with
      | None -> None
      | Some h2 ->
          first_in_vec table (fun o ->
              if o.Obj_.loc <> Obj_.In_h2 then None
              else begin
                let hit = ref None in
                Obj_.iter_refs
                  (fun c ->
                    if
                      !hit = None
                      && c.Obj_.loc = Obj_.In_h2
                      && c.Obj_.h2_region <> o.Obj_.h2_region
                    then hit := Some c.Obj_.h2_region)
                  o;
                match !hit with
                | None -> None
                | Some dst ->
                    H2.debug_remove_dependency h2
                      ~src_region:o.Obj_.h2_region ~dst_region:dst;
                    Some Verify.Dependency_soundness
              end))

let prop_plant_accounting_skew =
  plant "old-generation accounting skew is detected" ~count:40
    (fun rt _ _ ->
      let heap = Runtime.heap rt in
      heap.H1_heap.old_used <- heap.H1_heap.old_used + 4096;
      Some Verify.Region_accounting)

let prop_plant_freed_root =
  plant "marking a rooted object freed is detected" ~count:40
    (fun _ _ pinned ->
      let victim =
        (* Any live object serves as the planted victim; which binding
           the fold happens to surface first is immaterial.
           th-lint: allow hashtbl-order *)
        Hashtbl.fold
          (fun _ (o : Obj_.t) acc ->
            match acc with
            | Some _ -> acc
            | None -> if Obj_.is_freed o then None else Some o)
          pinned None
      in
      match victim with
      | None -> None
      | Some o ->
          o.Obj_.loc <- Obj_.Freed;
          Some Verify.Reachability)

let prop_plant_clock_reset =
  QCheck.Test.make ~name:"clock rollback is detected as conservation"
    ~count:40 Test_gc_props.arbitrary_program
    (fun program ->
      let rt, _, _ = Test_gc_props.execute program in
      (* Exact-zero guard: a program that never advanced the clock has
         literally 0.0 ns. th-lint: allow float-equality *)
      if Clock.now_ns (Runtime.clock rt) = 0.0 then true
      else begin
        let v = Verify.attach rt Verify.Safepoint in
        Verify.check_now v;
        Clock.reset (Runtime.clock rt);
        Verify.check_now v;
        has_rule v Verify.Conservation
      end)

(* ------------------------------------------------------------------ *)
(* Report golden: every seeded corruption's full violation list.       *)

(* The detection tests above only ask whether a rule fired; the golden
   also catches a reordered, duplicated or reworded violation. *)

(* A fixed program that spreads eight labels over several H2 regions,
   then adds H2-to-young backward references and cross-region H2
   edges. *)
let h2_heavy_program =
  let open Test_gc_props in
  let n = 48 in
  List.concat
    [
      List.init n (fun i -> Alloc (i mod 3));
      List.init 16 (fun i -> Pin (i * 3));
      List.init n (fun i -> Link (i, ((i * 7) + 5) mod n));
      List.init 8 (fun l -> Tag (l * 6, l));
      List.init 8 (fun l -> Advise l);
      [ Major ];
      List.init n (fun i -> Alloc (i mod 2));
      List.init n (fun i -> Link ((i * 5) mod n, n + i));
      List.init 24 (fun i -> Link (i * 2, ((i * 11) + 3) mod n));
      [ Minor ];
    ]

(* Plant corruptions across every region at once: clean the segments of
   every H2 object with a backward reference, drop every dependency
   edge, skew one H2 object's address and free another H2 object in
   place. Then check at a manual point and through one minor GC. *)
let scenario_h2_heavy_paranoid () =
  let rt, table, _ = Test_gc_props.execute h2_heavy_program in
  let h2 = Option.get (Runtime.h2 rt) in
  let ct = H2.card_table h2 in
  let cfg = H2.config h2 in
  let in_h2 =
    List.filter
      (fun (o : Obj_.t) -> o.Obj_.loc = Obj_.In_h2)
      (Vec.to_list table)
  in
  Alcotest.(check bool) "precondition: several H2 regions" true
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun (o : Obj_.t) -> o.Obj_.h2_region) in_h2))
    > 2);
  List.iter
    (fun (o : Obj_.t) ->
      let backward = ref false and cross = ref [] in
      Obj_.iter_refs
        (fun c ->
          if Obj_.is_in_h1 c then backward := true
          else if
            c.Obj_.loc = Obj_.In_h2 && c.Obj_.h2_region <> o.Obj_.h2_region
          then cross := c.Obj_.h2_region :: !cross)
        o;
      if !backward then begin
        let gstart = (o.Obj_.h2_region * cfg.H2.region_size) + o.Obj_.addr in
        let seg_size = H2_card_table.segment_size ct in
        for
          s = gstart / seg_size
          to (gstart + Obj_.total_size o - 1) / seg_size
        do
          H2_card_table.set_state ct ~seg:s H2_card_table.Clean
        done
      end;
      List.iter
        (fun dst ->
          H2.debug_remove_dependency h2 ~src_region:o.Obj_.h2_region
            ~dst_region:dst)
        !cross)
    in_h2;
  let v = Verify.attach rt Verify.Paranoid in
  (match in_h2 with
  | a :: _ :: b :: _ ->
      a.Obj_.addr <- a.Obj_.addr + 8;
      b.Obj_.loc <- Obj_.Freed
  | _ -> Alcotest.fail "precondition: three H2 objects");
  Verify.check_now v;
  (try Runtime.minor_gc rt with
  | Runtime.Out_of_memory _ | H2.Out_of_h2_space -> ());
  v

let report_scenarios =
  [
    ("cleared H1 card", scenario_cleared_h1_card);
    ("dropped rset index", scenario_dropped_rset_index);
    ("misplaced rset entry", scenario_misplaced_rset_entry);
    ("illegally cleaned H2 card", scenario_illegal_h2_card_clean);
    ("illegal card transition", scenario_illegal_transition);
    ("removed dependency edge", scenario_removed_dependency);
    ("accounting skew", scenario_accounting_skew);
    ("dead-young counter skew", scenario_dead_young_skew);
    ("freed but reachable", scenario_freed_reachable);
    ("clock rollback", scenario_clock_reset);
    ("report names rules", scenario_report_names_rules);
    ("H2-heavy paranoid run", scenario_h2_heavy_paranoid);
  ]

let test_report_golden () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, scenario) ->
      Printf.bprintf b "== %s\n%s" name (Verify.report (scenario ())))
    report_scenarios;
  Test_trace.golden_check ~file:"verify_reports.txt" (Buffer.contents b)

let props =
  [
    prop_clean_safepoint;
    prop_clean_paranoid;
    prop_clean_unaligned;
    prop_clean_region_groups;
    prop_degraded_clean;
    prop_verifier_pure;
    prop_plant_card_clear;
    prop_plant_index_drop;
    prop_plant_h2_card_clean;
    prop_plant_dep_drop;
    prop_plant_accounting_skew;
    prop_plant_freed_root;
    prop_plant_clock_reset;
  ]

let suite =
  [
    Alcotest.test_case "detects cleared H1 card" `Quick
      test_detects_cleared_h1_card;
    Alcotest.test_case "detects dropped rset index" `Quick
      test_detects_dropped_rset_index;
    Alcotest.test_case "detects misplaced rset index entry" `Quick
      test_detects_misplaced_rset_entry;
    Alcotest.test_case "detects illegally cleaned H2 card" `Quick
      test_detects_illegal_h2_card_clean;
    Alcotest.test_case "detects illegal card transition online" `Quick
      test_detects_illegal_transition;
    Alcotest.test_case "detects removed dependency edge" `Quick
      test_detects_removed_dependency;
    Alcotest.test_case "detects accounting skew" `Quick
      test_detects_accounting_skew;
    Alcotest.test_case "detects dead-young counter skew" `Quick
      test_detects_dead_young_skew;
    Alcotest.test_case "detects freed-but-reachable (paranoid only)" `Quick
      test_detects_freed_reachable;
    Alcotest.test_case "detects clock rollback" `Quick
      test_detects_clock_reset;
    Alcotest.test_case "report names rule and phase" `Quick
      test_report_names_rules;
    Alcotest.test_case "seeded-corruption reports match golden" `Quick
      test_report_golden;
  ]
  @ List.map QCheck_alcotest.to_alcotest props

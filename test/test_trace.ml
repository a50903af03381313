(* Tests for the flight recorder (lib/trace): ring-buffer accounting,
   both exporters, golden compact-text traces of one tiny Spark and one
   tiny Giraph workload, qcheck properties over random mutator programs
   (span nesting, timestamp monotonicity, rollup exactness, and trace
   determinism), and the fault timeline.

   Golden files live in test/golden/; regenerate them with
   `TH_UPDATE_GOLDEN=1 dune runtest` (the update path writes back into
   the source tree, not just the build sandbox). *)

open Th_sim
module Event = Th_trace.Event
module Recorder = Th_trace.Recorder
module Export = Th_trace.Export
module Rollup = Th_trace.Rollup
module Counters = Th_verify.Counters
module Fault = Th_sim.Fault
module Device = Th_device.Device
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module Runtime = Th_psgc.Runtime
module Gc_stats = Th_psgc.Gc_stats
module Context = Th_spark.Context
module Rdd = Th_spark.Rdd
module Block_manager = Th_spark.Block_manager
module Stage = Th_spark.Stage
module Engine = Th_giraph.Engine
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Spark_driver = Th_workloads.Spark_driver
module Run_result = Th_workloads.Run_result

(* --- ring-buffer accounting ------------------------------------------ *)

let test_ring_drops_oldest () =
  let tr = Recorder.create ~capacity:16 ~lane:3 () in
  for i = 0 to 19 do
    Recorder.instant tr ~ts:(float_of_int i) ~cat:"t" ~name:"e" ()
  done;
  Alcotest.(check int) "lane" 3 (Recorder.lane tr);
  Alcotest.(check int) "length capped at capacity" 16 (Recorder.length tr);
  Alcotest.(check int) "total counts everything" 20 (Recorder.total tr);
  Alcotest.(check int) "dropped = overflow" 4 (Recorder.dropped tr);
  let events = Recorder.events tr in
  Alcotest.(check int) "events returns the window" 16 (List.length events);
  (match events with
  | first :: _ ->
      Alcotest.(check (float 0.0)) "oldest survivor" 4.0 first.Event.ts
  | [] -> Alcotest.fail "empty window");
  (match List.rev events with
  | last :: _ -> Alcotest.(check (float 0.0)) "newest kept" 19.0 last.Event.ts
  | [] -> Alcotest.fail "empty window");
  Recorder.clear tr;
  Alcotest.(check int) "clear empties the window" 0 (Recorder.length tr);
  Alcotest.(check int) "clear resets totals" 0 (Recorder.total tr)

let test_ring_capacity_clamped () =
  (* Requested capacity 1 is clamped up to the 16-slot floor. *)
  let tr = Recorder.create ~capacity:1 ~lane:0 () in
  for i = 0 to 15 do
    Recorder.instant tr ~ts:(float_of_int i) ~cat:"t" ~name:"e" ()
  done;
  Alcotest.(check int) "16 events fit" 0 (Recorder.dropped tr);
  Recorder.instant tr ~ts:16.0 ~cat:"t" ~name:"e" ();
  Alcotest.(check int) "17th drops one" 1 (Recorder.dropped tr)

(* The ring starts small and grows on demand; what it reports must be
   what a ring preallocated at full capacity reports: the newest
   [capacity] events in order, the rest counted as dropped. Capacity
   3000 crosses two doublings of the 1024-slot start before it wraps. *)
let test_ring_grows_like_eager () =
  List.iter
    (fun (capacity, counts) ->
      List.iter
        (fun n ->
          let tr = Recorder.create ~capacity ~lane:0 () in
          for i = 0 to n - 1 do
            Recorder.instant tr ~ts:(float_of_int i) ~cat:"t" ~name:"e" ()
          done;
          let kept = min n capacity in
          let label what =
            Printf.sprintf "capacity %d, %d events: %s" capacity n what
          in
          Alcotest.(check (list (float 0.0)))
            (label "events")
            (List.init kept (fun i -> float_of_int (n - kept + i)))
            (List.map (fun e -> e.Event.ts) (Recorder.events tr));
          Alcotest.(check int) (label "total") n (Recorder.total tr);
          Alcotest.(check int) (label "dropped") (n - kept)
            (Recorder.dropped tr))
        counts)
    [
      (16, List.init 101 Fun.id);
      (3000, [ 0; 1; 1023; 1024; 1025; 2048; 2049; 2999; 3000; 3001; 7000 ]);
    ]

(* --- exporters ------------------------------------------------------- *)

let sample_recorder () =
  let tr = Recorder.create ~lane:1 () in
  Recorder.span_begin tr ~ts:1000.0 ~cat:"gc" ~name:"minor_gc" ();
  Recorder.complete tr ~ts:1500.0 ~dur_ns:250.0 ~cat:"device" ~name:"read"
    ~args:[ ("bytes", Event.Int 4096) ]
    ();
  Recorder.span_end tr ~ts:2000.0 ~cat:"gc" ~name:"minor_gc"
    ~args:[ ("dur_ns", Event.Float 1000.0) ]
    ();
  Recorder.instant tr ~ts:2000.0 ~cat:"safepoint" ~name:"after_minor" ();
  Recorder.counter tr ~ts:2000.0 ~cat:"counter" ~name:"page_cache"
    ~args:[ ("hits", Event.Int 3); ("misses", Event.Int 1) ];
  tr

let test_text_exporter_format () =
  let text = Export.to_text (Recorder.events (sample_recorder ())) in
  Alcotest.(check string) "compact text, one line per event"
    "1 1000.000 B gc minor_gc\n\
     1 1500.000 X device read dur=250.000 bytes=4096\n\
     1 2000.000 E gc minor_gc dur_ns=1000.000\n\
     1 2000.000 I safepoint after_minor\n\
     1 2000.000 C counter page_cache hits=3 misses=1\n"
    text

let test_chrome_exporter_format () =
  let json = Export.to_chrome_json (Recorder.events (sample_recorder ())) in
  Alcotest.(check string) "chrome trace events (ts/dur in microseconds)"
    ("{\"traceEvents\":[\n"
   ^ "{\"name\":\"minor_gc\",\"cat\":\"gc\",\"ph\":\"B\",\"ts\":1.000,\"pid\":0,\"tid\":1},\n"
   ^ "{\"name\":\"read\",\"cat\":\"device\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.250,\"pid\":0,\"tid\":1,\"args\":{\"bytes\":4096}},\n"
   ^ "{\"name\":\"minor_gc\",\"cat\":\"gc\",\"ph\":\"E\",\"ts\":2.000,\"pid\":0,\"tid\":1,\"args\":{\"dur_ns\":1000.000}},\n"
   ^ "{\"name\":\"after_minor\",\"cat\":\"safepoint\",\"ph\":\"i\",\"ts\":2.000,\"s\":\"t\",\"pid\":0,\"tid\":1},\n"
   ^ "{\"name\":\"page_cache\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":2.000,\"pid\":0,\"tid\":1,\"args\":{\"hits\":3,\"misses\":1}}\n"
   ^ "],\"displayTimeUnit\":\"ms\"}\n")
    json

let test_merge_keeps_lane_order () =
  let a = Recorder.create ~lane:0 () in
  let b = Recorder.create ~lane:1 () in
  Recorder.instant a ~ts:5.0 ~cat:"t" ~name:"a0" ();
  Recorder.instant b ~ts:1.0 ~cat:"t" ~name:"b0" ();
  Recorder.instant a ~ts:7.0 ~cat:"t" ~name:"a1" ();
  let names = List.map (fun e -> e.Event.name) (Export.merge [ a; b ]) in
  Alcotest.(check (list string))
    "argument order, not timestamp order; per-lane order preserved"
    [ "a0"; "a1"; "b0" ] names

(* --- span-structure helpers ------------------------------------------ *)

(* Walk an event list checking stack discipline per lane: every Span_end
   must close the innermost open span of its lane. Returns the open-span
   count left at the end. *)
let check_nesting events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let stack lane = Option.value ~default:[] (Hashtbl.find_opt stacks lane) in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Span_begin ->
          Hashtbl.replace stacks e.Event.lane (e.Event.name :: stack e.Event.lane)
      | Event.Span_end -> (
          match stack e.Event.lane with
          | top :: rest when String.equal top e.Event.name ->
              Hashtbl.replace stacks e.Event.lane rest
          | top :: _ ->
              Alcotest.failf "span_end %s closes open span %s" e.Event.name top
          | [] -> Alcotest.failf "span_end %s with no open span" e.Event.name)
      | Event.Complete _ | Event.Instant | Event.Counter -> ())
    events;
  (* Order-insensitive: sums the open-span counts. th-lint: allow hashtbl-order *)
  Hashtbl.fold (fun _ s n -> n + List.length s) stacks 0

(* Events are recorded in simulated-time order, but a Complete event is
   stamped with its start time and recorded when the operation finishes
   (instants injected mid-operation, e.g. faults, land between the two).
   The monotone quantity is therefore the record time: ts + dur for
   Complete events, ts for everything else. *)
let record_time (e : Event.t) =
  match e.Event.kind with
  | Event.Complete dur -> e.Event.ts +. dur
  | Event.Span_begin | Event.Span_end | Event.Instant | Event.Counter ->
      e.Event.ts

let check_monotone events =
  ignore
    (List.fold_left
       (fun prev (e : Event.t) ->
         let t = record_time e in
         if t < prev then
           Alcotest.failf "record time went backwards: %.3f after %.3f" t prev;
         t)
       neg_infinity events)

(* --- golden traces --------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The golden directories that exist from the current directory. `dune
   runtest` runs the suite in _build/default/test, where golden/ is the
   staged copy and ../../../test/golden the source tree; `dune exec`
   runs it from the project root, where test/golden is the source tree.
   Every golden file is read from the first directory found and, under
   TH_UPDATE_GOLDEN, written to all of them, so the source tree keeps
   the regenerated file and the staged copy agrees with it. *)
let golden_dirs () =
  List.filter
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [ "golden"; "../../../test/golden"; "test/golden" ]

let golden_check ~file text =
  match golden_dirs () with
  | [] -> Alcotest.failf "no golden directory found for %s" file
  | dir :: _ as dirs ->
      if Sys.getenv_opt "TH_UPDATE_GOLDEN" <> None then
        List.iter (fun d -> write_file (Filename.concat d file) text) dirs
      else begin
        let path = Filename.concat dir file in
        if not (Sys.file_exists path) then
          Alcotest.failf
            "missing %s (regenerate: TH_UPDATE_GOLDEN=1 dune runtest)" path;
        let expected = read_file path in
        if not (String.equal expected text) then begin
          let el = String.split_on_char '\n' expected in
          let al = String.split_on_char '\n' text in
          let rec first_diff i = function
            | e :: es, a :: as_ ->
                if String.equal e a then first_diff (i + 1) (es, as_)
                else (i, e, a)
            | e :: _, [] -> (i, e, "<end of output>")
            | [], a :: _ -> (i, "<end of golden>", a)
            | [], [] -> (i, "", "")
          in
          let line, e, a = first_diff 1 (el, al) in
          Alcotest.failf
            "%s differs at line %d:\n golden: %s\n actual: %s\n\
             (regenerate with TH_UPDATE_GOLDEN=1 dune runtest)"
            path line e a
        end
      end

(* A tiny deterministic Spark scenario: cache two partitions through the
   TeraHeap block manager inside a stage, advise+move them at a major
   GC, then read one back in a second stage. Everything is simulated, so
   the trace is a pure function of this code. *)
let traced_spark_run () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 24) () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 =
    H2.create ~config:H2.default_config ~clock ~costs:Costs.default ~device
      ~dr2_bytes:(Size.mib 8) ()
  in
  let rt = Runtime.create ~h2 ~clock ~costs:Costs.default ~heap () in
  let ctx = Context.create ~mode:Context.Teraheap_cache rt in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let bm = Block_manager.create ctx in
  let rdd =
    Rdd.create ctx ~partitions:2 ~elems_per_partition:16 ~elem_size:512 ()
  in
  Stage.run ctx ~shuffle_bytes:(Size.kib 128) ~transient_bytes:(Size.kib 32)
    ~work:(fun () ->
      for pidx = 0 to rdd.Rdd.partitions - 1 do
        let group = Rdd.build_partition ctx rdd in
        Block_manager.put bm ~rdd_id:rdd.Rdd.id ~pidx group;
        Runtime.remove_root rt group
      done)
    ();
  Runtime.major_gc rt;
  Stage.run ctx
    ~work:(fun () ->
      Block_manager.get bm ~rdd_id:rdd.Rdd.id ~pidx:0 ~consume:(fun _ -> ()))
    ();
  Runtime.minor_gc rt;
  (rt, tr)

let test_golden_spark () =
  let _, tr = traced_spark_run () in
  Alcotest.(check int) "no ring drops" 0 (Recorder.dropped tr);
  let events = Recorder.events tr in
  Alcotest.(check int) "all spans closed" 0 (check_nesting events);
  golden_check ~file:"spark_small.trace" (Export.to_text events)

(* A tiny deterministic Giraph scenario: three supersteps of the BSP
   engine in TeraHeap mode over a 120-vertex graph, with a heap small
   enough that the message churn forces real GC (and H2) activity onto
   the timeline. *)
let traced_giraph_run () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 2) () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 =
    H2.create ~config:H2.default_config ~clock ~costs:Costs.default ~device
      ~dr2_bytes:(Size.mib 8) ()
  in
  let rt = Runtime.create ~h2 ~clock ~costs:Costs.default ~heap () in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let algo =
    {
      Engine.name = "golden";
      supersteps = 3;
      message_bytes = (fun ~superstep:_ ~total_edges -> total_edges * 2000);
      combine_factor = 2.0;
      active_fraction = (fun ~superstep:_ -> 1.0);
      update_fraction = 0.5;
    }
  in
  let params =
    { Engine.partitions = 2; vertices = 120; avg_degree = 6; edge_bytes = 16 }
  in
  let result =
    Engine.run rt ~mode:Engine.Teraheap ~prng:(Prng.create 5L) ~algo params
  in
  (result, tr)

let test_golden_giraph () =
  let result, tr = traced_giraph_run () in
  Alcotest.(check int) "ran all supersteps" 3 result.Engine.supersteps_run;
  Alcotest.(check int) "no ring drops" 0 (Recorder.dropped tr);
  let events = Recorder.events tr in
  Alcotest.(check int) "all spans closed" 0 (check_nesting events);
  golden_check ~file:"giraph_small.trace" (Export.to_text events)

(* --- qcheck properties over random mutator programs ------------------ *)

let record_program ?(capacity = Recorder.default_capacity) program =
  let tr = Recorder.create ~capacity ~lane:0 () in
  let rt, _, _ =
    Test_gc_props.execute
      ~on_runtime:(fun rt -> Clock.set_tracer (Runtime.clock rt) (Some tr))
      program
  in
  (rt, tr)

(* Every span end closes the innermost open span of its lane. Programs
   may abort mid-operation (tiny heap, tiny H2), which can legally leave
   spans open at the end — but can never produce a mismatched close. *)
let prop_spans_nested =
  QCheck.Test.make ~name:"trace spans are properly nested per lane" ~count:60
    Test_gc_props.arbitrary_program
    (fun program ->
      let _, tr = record_program program in
      ignore (check_nesting (Recorder.events tr));
      true)

let prop_timestamps_monotone =
  QCheck.Test.make ~name:"trace record times never go backwards" ~count:60
    Test_gc_props.arbitrary_program
    (fun program ->
      let _, tr = record_program program in
      check_monotone (Recorder.events tr);
      true)

(* The rollup re-derives the GC and device breakdown from events alone
   and must agree with the live counters bit-for-bit. *)
let prop_rollup_exact =
  QCheck.Test.make ~name:"rollup from events = live counters, bit-exact"
    ~count:60 Test_gc_props.arbitrary_program
    (fun program ->
      let rt, tr = record_program program in
      if Recorder.dropped tr <> 0 then
        QCheck.Test.fail_report "ring dropped events; buffer too small";
      let r = Rollup.of_events (Recorder.events tr) in
      let gs = Runtime.stats rt in
      let ph = Gc_stats.phase_totals gs in
      let check what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: rollup %d <> stats %d" what a b
      in
      let checkf what a b =
        (* bit-exact: both sides sum the same floats in the same order *)
        if a <> b then
          QCheck.Test.fail_reportf "%s: rollup %.17g <> stats %.17g" what a b
      in
      check "minor count" r.Rollup.minor_gcs (Gc_stats.minor_count gs);
      check "major count" r.Rollup.major_gcs (Gc_stats.major_count gs);
      checkf "minor total" r.Rollup.minor_total_ns (Gc_stats.minor_total_ns gs);
      checkf "major total" r.Rollup.major_total_ns (Gc_stats.major_total_ns gs);
      checkf "marking" r.Rollup.marking_ns ph.Gc_stats.marking_ns;
      checkf "precompact" r.Rollup.precompact_ns ph.Gc_stats.precompact_ns;
      checkf "adjust" r.Rollup.adjust_ns ph.Gc_stats.adjust_ns;
      checkf "compact" r.Rollup.compact_ns ph.Gc_stats.compact_ns;
      (match Rollup.check_against r ~final:(Counters.capture rt) with
      | [] -> ()
      | ms ->
          QCheck.Test.fail_reportf "device counters diverge: %s"
            (String.concat "; " ms));
      true)

(* Re-running the same program yields a byte-identical text trace: the
   property behind --jobs determinism (workload cells record into
   per-lane recorders merged in argument order, so scheduling cannot
   reorder anything). *)
let prop_trace_deterministic =
  QCheck.Test.make ~name:"same program, byte-identical trace" ~count:20
    Test_gc_props.arbitrary_program
    (fun program ->
      let run () =
        let _, tr = record_program program in
        Export.to_text (Recorder.events tr)
      in
      String.equal (run ()) (run ()))

(* --- fault timeline -------------------------------------------------- *)

let injection_names =
  [ "read_error"; "write_error"; "spike"; "stall"; "device_full" ]

let count_fault events name =
  List.length
    (List.filter
       (fun (e : Event.t) ->
         String.equal e.Event.cat "fault" && String.equal e.Event.name name)
       events)

(* Device-level: every counter the injector charges has exactly one
   instant on the timeline, per kind. *)
let test_fault_events_match_injector_counters () =
  let plan =
    {
      Fault.default_plan with
      Fault.seed = 7L;
      read_error_rate = 0.02;
      write_error_rate = 0.02;
      spike_rate = 0.005;
      stall_rate = 0.01;
      full_rate = 5e-4;
    }
  in
  let clock = Clock.create () in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let inj = Fault.create plan in
  let device = Device.create ~faults:inj clock Device.Nvme_ssd in
  for _ = 1 to 2000 do
    Device.read device ~cat:Clock.Serde_io ~random:true 4096;
    Device.write device ~cat:Clock.Serde_io ~random:true 4096
  done;
  Alcotest.(check int) "no ring drops" 0 (Recorder.dropped tr);
  let events = Recorder.events tr in
  let fs = Fault.stats inj in
  Alcotest.(check bool) "faults actually injected" true
    (Fault.faults_injected fs > 0);
  Alcotest.(check int) "read errors" fs.Fault.read_errors
    (count_fault events "read_error");
  Alcotest.(check int) "write errors" fs.Fault.write_errors
    (count_fault events "write_error");
  Alcotest.(check int) "spikes" fs.Fault.spiked_ops
    (count_fault events "spike");
  Alcotest.(check int) "stalls" fs.Fault.stalls (count_fault events "stall");
  Alcotest.(check int) "ENOSPC rejections" fs.Fault.enospc_rejections
    (count_fault events "device_full");
  Alcotest.(check int) "retries" fs.Fault.retries
    (count_fault events "retry");
  Alcotest.(check int) "exhausted retries" fs.Fault.exhausted_retries
    (count_fault events "retry_exhausted");
  let r = Rollup.of_events events in
  Alcotest.(check int) "rollup counts every injection"
    (Fault.faults_injected fs) r.Rollup.faults_injected;
  check_monotone events

(* H2-exhaustion degradation (PR 1): the degraded-compaction path must
   leave its own marks on the timeline. *)
let test_h2_degradation_on_timeline () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 8) () in
  let device = Device.create clock Device.Nvme_ssd in
  let config =
    { H2.default_config with H2.region_size = Size.kib 64; capacity = Size.kib 128 }
  in
  let h2 = H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.mib 1) () in
  let rt = Runtime.create ~h2 ~clock ~costs ~heap () in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  for _ = 1 to 60 do
    let e = Runtime.alloc rt ~size:(Size.kib 8) () in
    Runtime.write_ref rt part e
  done;
  Runtime.h2_tag_root rt part ~label:4;
  Runtime.h2_move rt ~label:4;
  Runtime.major_gc rt;
  Runtime.major_gc rt;
  let s = H2.stats h2 in
  Alcotest.(check bool) "scenario degraded" true (s.H2.degraded_moves >= 2);
  let events = Recorder.events tr in
  let count name =
    List.length
      (List.filter
         (fun (e : Event.t) ->
           String.equal e.Event.cat "h2" && String.equal e.Event.name name)
         events)
  in
  Alcotest.(check int) "one degraded_move instant per degraded compaction"
    s.H2.degraded_moves (count "degraded_move");
  Alcotest.(check bool) "regions were opened" true (count "region_open" > 0)

(* Whole-workload --faults run (Spark PageRank at half scale): one
   injection instant per fault charged in the Run_result, in order. *)
let test_spark_fault_run_timeline () =
  let p = Spark_profiles.pagerank in
  let dram = List.fold_left max 0 p.Spark_profiles.th_dram_gb in
  let plan = Fault.static { Fault.default_plan with Fault.seed = 11L } in
  let s =
    Setups.spark_teraheap ~huge_pages:p.Spark_profiles.sequential ~faults:plan
      ~h1_gb:(dram - Spark_profiles.dr2_gb)
      ~dr2_gb:Spark_profiles.dr2_gb ()
  in
  let tr = Recorder.create ~capacity:(1 lsl 20) ~lane:0 () in
  Clock.set_tracer s.Setups.clock (Some tr);
  let r =
    Spark_driver.run ~dataset_scale:0.5 ~label:"th-faults-traced"
      ?h2_device:s.Setups.h2_device ?faults:s.Setups.faults s.Setups.ctx p
  in
  Alcotest.(check int) "no ring drops" 0 (Recorder.dropped tr);
  let events = Recorder.events tr in
  match r.Run_result.faults with
  | None -> Alcotest.fail "fault counters missing from Run_result"
  | Some fs ->
      Alcotest.(check bool) "faults actually injected" true
        (Fault.faults_injected fs > 0);
      let injected =
        List.fold_left
          (fun n name -> n + count_fault events name)
          0 injection_names
      in
      Alcotest.(check int) "one injection instant per charged fault"
        (Fault.faults_injected fs) injected;
      check_monotone
        (List.filter
           (fun (e : Event.t) -> String.equal e.Event.cat "fault")
           events)

let props =
  [
    prop_spans_nested;
    prop_timestamps_monotone;
    prop_rollup_exact;
    prop_trace_deterministic;
  ]

let suite =
  [
    Alcotest.test_case "ring buffer drops oldest, accounts drops" `Quick
      test_ring_drops_oldest;
    Alcotest.test_case "ring capacity clamps to the 16-slot floor" `Quick
      test_ring_capacity_clamped;
    Alcotest.test_case "ring grows on demand like an eager ring" `Quick
      test_ring_grows_like_eager;
    Alcotest.test_case "compact text exporter format" `Quick
      test_text_exporter_format;
    Alcotest.test_case "chrome trace-event JSON format" `Quick
      test_chrome_exporter_format;
    Alcotest.test_case "merge keeps lane order" `Quick
      test_merge_keeps_lane_order;
    Alcotest.test_case "golden trace: tiny Spark workload" `Quick
      test_golden_spark;
    Alcotest.test_case "golden trace: tiny Giraph workload" `Quick
      test_golden_giraph;
    Alcotest.test_case "fault instants match injector counters" `Quick
      test_fault_events_match_injector_counters;
    Alcotest.test_case "H2 exhaustion degradation is on the timeline" `Quick
      test_h2_degradation_on_timeline;
    Alcotest.test_case "spark --faults run: one instant per charged fault"
      `Slow test_spark_fault_run_timeline;
  ]
  @ List.map QCheck_alcotest.to_alcotest props

(* Tests for the fault-injection substrate: plan parsing, zero-rate
   transparency, retry/backoff accounting, checked-vs-unchecked failure
   semantics, graceful H2 degradation, and whole-workload runs completing
   in degraded mode instead of crashing. *)

open Th_sim
module Fault = Th_sim.Fault
module Device = Th_device.Device
module Io_retry = Th_device.Io_retry
module Page_cache = Th_device.Page_cache
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module Runtime = Th_psgc.Runtime
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Giraph_profiles = Th_workloads.Giraph_profiles
module Spark_driver = Th_workloads.Spark_driver
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result

(* --- plan parsing ---------------------------------------------------- *)

let test_parse_presets () =
  (match Fault.parse "none" with
  | Ok p -> Alcotest.(check bool) "none is zero" true (p = Fault.static Fault.zero)
  | Error e -> Alcotest.fail e);
  (match Fault.parse "default,seed=9" with
  | Ok p ->
      Alcotest.(check bool) "preset with override" true
        (p = Fault.static { Fault.default_plan with Fault.seed = 9L })
  | Error e -> Alcotest.fail e);
  (match Fault.parse "harsh" with
  | Ok p -> Alcotest.(check bool) "harsh preset" true (p = Fault.static Fault.harsh)
  | Error e -> Alcotest.fail e);
  (match Fault.parse "wearout" with
  | Ok p -> Alcotest.(check bool) "wearout preset" true (p = Fault.wearout)
  | Error e -> Alcotest.fail e);
  (match Fault.parse "bursty" with
  | Ok p ->
      Alcotest.(check bool) "bursty preset" true (p = Fault.bursty);
      Alcotest.(check bool) "bursty cycles" true p.Fault.cycle
  | Error e -> Alcotest.fail e);
  match Fault.parse "bogus_key=1" with
  | Ok _ -> Alcotest.fail "bogus key accepted"
  | Error _ -> ()

let test_parse_roundtrip () =
  let spec = { Fault.harsh with Fault.seed = 123L } in
  (match Fault.parse (Fault.to_string spec) with
  | Ok p ->
      Alcotest.(check bool) "to_string parses back" true (p = Fault.static spec)
  | Error e -> Alcotest.fail e);
  (* Plans (including the phased presets) round-trip through
     plan_to_string too. *)
  List.iter
    (fun plan ->
      match Fault.parse (Fault.plan_to_string plan) with
      | Ok p -> Alcotest.(check bool) "plan round-trips" true (p = plan)
      | Error e -> Alcotest.fail e)
    [ Fault.wearout; Fault.bursty; Fault.static Fault.default_plan ]

let test_parse_phases () =
  (match Fault.parse "phase(none,dur_ms=80),phase(harsh,dur_ms=20),cycle" with
  | Ok p ->
      Alcotest.(check bool) "explicit phases equal bursty" true (p = Fault.bursty)
  | Error e -> Alcotest.fail e);
  (* A top-level key after phase(...) applies to every phase. *)
  (match Fault.parse "phase(none,dur_s=1),phase(harsh),seed=77" with
  | Ok p ->
      List.iter
        (fun (s, _) -> Alcotest.(check int64) "seed everywhere" 77L s.Fault.seed)
        p.Fault.phases
  | Error e -> Alcotest.fail e);
  (* A finite last phase is legal in a non-cycling plan: it holds past
     its stated end (the injector never runs out of schedule). *)
  (match Fault.parse "phase(harsh,dur_ms=5)" with
  | Ok p ->
      let inj = Fault.create_plan p in
      ignore (Fault.on_read inj ~now_ns:60e6);
      Alcotest.(check int) "terminal phase persists" 0 (Fault.phase_index inj)
  | Error e -> Alcotest.fail e);
  (* But a cycling plan with an open-ended phase cannot wrap. *)
  match Fault.parse "phase(harsh),cycle" with
  | Ok _ -> Alcotest.fail "cycling plan with an infinite phase accepted"
  | Error _ -> ()

(* Satellite: hostile inputs must come back as descriptive [Error],
   never as a silently-clamped plan or an exception. *)
let test_parse_rejects_invalid () =
  let expect_error ~needle input =
    match Fault.parse input with
    | Ok _ -> Alcotest.failf "accepted %S" input
    | Error e ->
        let lower = String.lowercase_ascii e in
        let found =
          let nl = String.length needle and el = String.length lower in
          let rec scan i =
            i + nl <= el && (String.sub lower i nl = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %S (got %S)" input needle e)
          true found
  in
  expect_error ~needle:"probability" "read_err=-0.1";
  expect_error ~needle:"probability" "write_err=1.5";
  expect_error ~needle:"probability" "spike=2";
  expect_error ~needle:"spike_factor" "spike_factor=0.5";
  expect_error ~needle:"stall_us" "stall_us=-3";
  expect_error ~needle:"dur" "phase(harsh,dur_ms=0),phase(none)";
  expect_error ~needle:"dur" "phase(harsh,dur_ms=-2),phase(none)";
  expect_error ~needle:"seed" "seed=banana";
  expect_error ~needle:"unknown" "phase(harsh,bogus=1),phase(none)"

(* Grid-valued generators: every value prints exactly under %g, so the
   qcheck round-trip through the textual form is loss-free. *)
let grid_spec_gen =
  QCheck.Gen.(
    let rate = oneofl [ 0.0; 0.05; 0.125; 0.25; 0.5; 1.0 ] in
    let dur_us = oneofl [ 0.0; 50.0; 400.0; 2000.0 ] in
    let* seed = map Int64.of_int (int_range 0 10_000) in
    let* read_error_rate = rate in
    let* write_error_rate = rate in
    let* spike_rate = rate in
    let* spike_factor = oneofl [ 1.0; 2.0; 8.0; 16.0 ] in
    let* spike_d = dur_us in
    let* stall_rate = rate in
    let* stall_us = dur_us in
    let* full_rate = rate in
    let* full_d = dur_us in
    return
      {
        Fault.seed;
        read_error_rate;
        write_error_rate;
        spike_rate;
        spike_factor;
        spike_duration_ns = spike_d *. 1e3;
        stall_rate;
        stall_ns = stall_us *. 1e3;
        full_rate;
        full_duration_ns = full_d *. 1e3;
      })

let grid_plan_gen =
  QCheck.Gen.(
    let* specs = list_size (int_range 1 4) grid_spec_gen in
    let* cycle = bool in
    let* durs =
      flatten_l
        (List.map (fun _ -> oneofl [ 1_000.0; 500_000.0; 3e9 ]) specs)
    in
    let phases = List.combine specs durs in
    if cycle then return { Fault.phases; cycle = true }
    else
      (* A non-cycling plan must end in an open-ended phase. *)
      let rec cap = function
        | [] -> []
        | [ (s, _) ] -> [ (s, infinity) ]
        | p :: rest -> p :: cap rest
      in
      return { Fault.phases = cap phases; cycle = false })

let prop_plan_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse (plan_to_string p) = Ok p"
    (QCheck.make grid_plan_gen) (fun plan ->
      match Fault.parse (Fault.plan_to_string plan) with
      | Ok p -> p = plan
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

(* --- zero-rate transparency ------------------------------------------ *)

(* The same op sequence against a plain device and against one carrying a
   zero-rate injector: identical clock breakdown and device stats, and
   the injector must never have drawn from its PRNG (no counters). *)
let exercise clock device =
  let cache =
    Page_cache.create ~capacity_bytes:(Size.kib 64) clock device
  in
  for i = 0 to 199 do
    Device.read device ~cat:Clock.Serde_io ~random:(i mod 3 = 0) (512 * (i + 1));
    Device.write device ~cat:Clock.Major_gc ~random:(i mod 5 = 0) (256 * (i + 1));
    Page_cache.access cache ~cat:Clock.Other ~write:(i mod 2 = 0)
      ~offset:(i * 1000) ~len:900
  done;
  Device.read_continuation device ~cat:Clock.Other ~overlap:0.5 (Size.kib 8)

let test_zero_rate_plan_is_transparent () =
  let clock_a = Clock.create () in
  let dev_a = Device.create clock_a Device.Nvme_ssd in
  exercise clock_a dev_a;
  let clock_b = Clock.create () in
  let inj = Fault.create Fault.zero in
  let dev_b = Device.create ~faults:inj clock_b Device.Nvme_ssd in
  exercise clock_b dev_b;
  Alcotest.(check bool) "injector disabled" false (Fault.enabled inj);
  let a = Clock.breakdown clock_a and b = Clock.breakdown clock_b in
  Alcotest.(check (float 0.0)) "other" a.Clock.other_ns b.Clock.other_ns;
  Alcotest.(check (float 0.0)) "serde" a.Clock.serde_io_ns b.Clock.serde_io_ns;
  Alcotest.(check (float 0.0)) "minor" a.Clock.minor_gc_ns b.Clock.minor_gc_ns;
  Alcotest.(check (float 0.0)) "major" a.Clock.major_gc_ns b.Clock.major_gc_ns;
  let sa = Device.stats dev_a and sb = Device.stats dev_b in
  Alcotest.(check bool) "device stats identical" true (sa = sb);
  Alcotest.(check bool) "no counters recorded" true
    (Fault.stats inj = Fault.zero_stats)

(* --- retry/backoff accounting ---------------------------------------- *)

(* Invariant of the charging scheme: every completed unchecked operation
   charges its pure cost exactly once outside the fault penalties, so
     total clock = sum of pure costs + backoff_ns + penalty_ns. *)
let test_backoff_and_penalty_account_for_clock_delta () =
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
  let inj = Fault.create plan in
  let device = Device.create ~faults:inj clock Device.Nvme_ssd in
  let ops = 3000 in
  let read_cost = Device.read_cost_ns device ~random:true 4096 in
  let write_cost = Device.write_cost_ns device ~random:true 4096 in
  for _ = 1 to ops do
    Device.read device ~cat:Clock.Serde_io ~random:true 4096;
    Device.write device ~cat:Clock.Serde_io ~random:true 4096
  done;
  let fs = Fault.stats inj in
  Alcotest.(check bool) "faults were injected" true
    (Fault.faults_injected fs > 0);
  Alcotest.(check bool) "retries happened" true (fs.Fault.retries > 0);
  let total = Clock.total_ns (Clock.breakdown clock) in
  let pure = float_of_int ops *. (read_cost +. write_cost) in
  let expected = pure +. fs.Fault.backoff_ns +. fs.Fault.penalty_ns in
  Alcotest.(check (float (1e-6 *. total)))
    "total = pure + backoff + penalty" expected total

let test_backoff_grows_and_caps () =
  let p = Io_retry.default in
  Alcotest.(check (float 0.0)) "first backoff" p.Io_retry.base_backoff_ns
    (Io_retry.backoff_ns p ~attempt:1);
  Alcotest.(check bool) "grows" true
    (Io_retry.backoff_ns p ~attempt:2 > Io_retry.backoff_ns p ~attempt:1);
  Alcotest.(check (float 0.0)) "caps" p.Io_retry.max_backoff_ns
    (Io_retry.backoff_ns p ~attempt:1000)

(* --- checked vs unchecked failure semantics -------------------------- *)

let test_checked_raises_unchecked_waits () =
  let always_fail = { Fault.zero with Fault.seed = 1L; read_error_rate = 1.0 } in
  let clock = Clock.create () in
  let inj = Fault.create always_fail in
  let device = Device.create ~faults:inj clock Device.Nvme_ssd in
  (match Device.read ~checked:true device ~cat:Clock.Serde_io ~random:true 4096 with
  | () -> Alcotest.fail "checked read succeeded under 100% error rate"
  | exception Io_retry.Io_error { op; attempts } ->
      Alcotest.(check string) "op name" "read" op;
      Alcotest.(check int) "attempt budget"
        (1 + Io_retry.default.Io_retry.max_retries)
        attempts);
  Alcotest.(check bool) "exhaustion recorded" true
    ((Fault.stats inj).Fault.exhausted_retries >= 1);
  (* The unchecked (mmap) path absorbs the same exhaustion as a charged
     timeout and completes. *)
  let before = Clock.total_ns (Clock.breakdown clock) in
  Device.read device ~cat:Clock.Serde_io ~random:true 4096;
  let delta = Clock.total_ns (Clock.breakdown clock) -. before in
  Alcotest.(check bool) "timeout wait charged" true
    (delta >= Io_retry.default.Io_retry.timeout_ns)

(* --- graceful H2 degradation ----------------------------------------- *)

let tiny_h2_rt () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 8) () in
  let device = Device.create clock Device.Nvme_ssd in
  let config =
    {
      H2.default_config with
      H2.region_size = Size.kib 64;
      capacity = Size.kib 128;
    }
  in
  let h2 =
    H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.mib 1) ()
  in
  (Runtime.create ~h2 ~clock ~costs ~heap (), h2)

let test_h2_exhaustion_degrades_instead_of_aborting () =
  let rt, h2 = tiny_h2_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  (* A tagged group several times larger than the whole H2. *)
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  for _ = 1 to 60 do
    let e = Runtime.alloc rt ~size:(Size.kib 8) () in
    Runtime.write_ref rt part e
  done;
  Runtime.h2_tag_root rt part ~label:4;
  Runtime.h2_move rt ~label:4;
  Runtime.major_gc rt;
  let s = H2.stats h2 in
  Alcotest.(check bool) "degraded move recorded" true (s.H2.degraded_moves >= 1);
  Alcotest.(check bool) "objects left in H1" true (s.H2.objects_deferred > 0);
  (* The deferred objects stayed alive in H1, still tagged. *)
  Alcotest.(check bool) "root survives somewhere" false (Obj_.is_freed part);
  (* The next major GC retries (and, H2 still being full, degrades
     again) rather than crashing. *)
  Runtime.major_gc rt;
  let s2 = H2.stats h2 in
  Alcotest.(check bool) "retry at next major GC" true
    (s2.H2.degraded_moves > s.H2.degraded_moves)

(* --- defensive OOM snapshots ----------------------------------------- *)

let test_oom_result_is_defensive () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 2) () in
  let rt = Runtime.create ~clock ~costs:Costs.default ~heap () in
  let keep = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt keep;
  let r =
    try
      (* Pin everything: the heap must fill and the allocator give up. *)
      for _ = 1 to 10_000 do
        let o = Runtime.alloc rt ~size:(Size.kib 8) () in
        Runtime.write_ref rt keep o
      done;
      Alcotest.fail "tiny heap did not OOM"
    with Runtime.Out_of_memory reason -> Run_result.oom ~reason ~label:"oom" rt
  in
  Alcotest.(check bool) "outcome is Oom" true
    (r.Run_result.outcome = Run_result.Oom);
  Alcotest.(check bool) "breakdown marks OOM" true
    (r.Run_result.breakdown = None);
  Alcotest.(check bool) "reason captured" true (r.Run_result.oom_reason <> None);
  Alcotest.(check bool) "gc stats readable" true (r.Run_result.gc_stats <> None);
  Alcotest.(check bool) "gc counts non-negative" true
    (r.Run_result.minor_gcs >= 0 && r.Run_result.major_gcs >= 0);
  (match r.Run_result.at_failure with
  | None -> Alcotest.fail "clock snapshot missing at OOM"
  | Some b ->
      Alcotest.(check bool) "clock categories non-negative" true
        (b.Clock.other_ns >= 0.0 && b.Clock.serde_io_ns >= 0.0
        && b.Clock.minor_gc_ns >= 0.0 && b.Clock.major_gc_ns >= 0.0);
      Alcotest.(check bool) "simulated time advanced" true
        (Clock.total_ns b > 0.0));
  Alcotest.(check bool) "census captured" true (r.Run_result.census <> None)

(* --- whole workloads under faults ------------------------------------ *)

let spark_plan = Fault.static { Fault.default_plan with Fault.seed = 11L }

let run_spark_pr_with_faults () =
  let p = Spark_profiles.pagerank in
  let dram = List.fold_left max 0 p.Spark_profiles.th_dram_gb in
  let s =
    Setups.spark_teraheap ~huge_pages:p.Spark_profiles.sequential
      ~faults:spark_plan
      ~h1_gb:(dram - Spark_profiles.dr2_gb)
      ~dr2_gb:Spark_profiles.dr2_gb ()
  in
  Spark_driver.run ~dataset_scale:0.5 ~label:"th-faults"
    ?h2_device:s.Setups.h2_device ?faults:s.Setups.faults s.Setups.ctx p

let test_spark_pagerank_degrades_not_crashes () =
  let r = run_spark_pr_with_faults () in
  Alcotest.(check bool) "completed (no OOM)" true
    (r.Run_result.breakdown <> None);
  Alcotest.(check bool) "outcome Degraded" true
    (r.Run_result.outcome = Run_result.Degraded);
  (match r.Run_result.faults with
  | None -> Alcotest.fail "fault counters missing"
  | Some fs ->
      Alcotest.(check bool) "faults injected" true
        (Fault.faults_injected fs > 0));
  (* Same seed, same simulated time: rebuilding the whole setup must
     reproduce the run exactly. *)
  let r2 = run_spark_pr_with_faults () in
  match (r.Run_result.breakdown, r2.Run_result.breakdown) with
  | Some a, Some b ->
      Alcotest.(check (float 0.0)) "deterministic under same seed"
        (Clock.total_ns a) (Clock.total_ns b);
      Alcotest.(check bool) "identical counters" true
        (r.Run_result.faults = r2.Run_result.faults)
  | _ -> Alcotest.fail "a run OOMed"

let giraph_plan = Fault.static { Fault.harsh with Fault.seed = 5L }

let run_giraph_bfs_with_faults () =
  let p = Giraph_profiles.bfs in
  let s =
    Setups.giraph_teraheap ~faults:giraph_plan
      ~h1_gb:p.Giraph_profiles.th_h1_gb ~dr2_gb:p.Giraph_profiles.th_dr2_gb ()
  in
  Giraph_driver.run ~label:"th-faults" s.Setups.rt ~mode:s.Setups.mode
    ?h2_device:s.Setups.g_h2_device ?faults:s.Setups.g_faults p

let test_giraph_bfs_degrades_not_crashes () =
  let r = run_giraph_bfs_with_faults () in
  Alcotest.(check bool) "completed (no OOM)" true
    (r.Run_result.breakdown <> None);
  Alcotest.(check bool) "outcome Degraded" true
    (r.Run_result.outcome = Run_result.Degraded);
  let r2 = run_giraph_bfs_with_faults () in
  match (r.Run_result.breakdown, r2.Run_result.breakdown) with
  | Some a, Some b ->
      Alcotest.(check (float 0.0)) "deterministic under same seed"
        (Clock.total_ns a) (Clock.total_ns b)
  | _ -> Alcotest.fail "a run OOMed"

(* The two lineage-recompute handlers: a checked off-heap read that
   exhausts its retries is rebuilt from lineage (Spark-SD's serialized
   cache in Block_manager.get, Giraph-OOC's offloaded edges in
   Ooc.ensure_resident). Neither TeraHeap run above reaches them. At a
   60% read-error rate some retry loops give up, and the run must
   recompute and finish Degraded, not die with an Io_error. *)
let recompute_plan =
  Fault.static { Fault.zero with Fault.seed = 3L; read_error_rate = 0.6 }

let check_recomputes_deterministically run =
  let r = run () in
  Alcotest.(check bool) "outcome Degraded" true
    (r.Run_result.outcome = Run_result.Degraded);
  (match r.Run_result.faults with
  | None -> Alcotest.fail "fault counters missing"
  | Some fs ->
      Alcotest.(check bool) "lineage recomputes fired" true
        (fs.Fault.recomputes > 0));
  let r2 = run () in
  match (r.Run_result.breakdown, r2.Run_result.breakdown) with
  | Some a, Some b ->
      Alcotest.(check (float 0.0)) "deterministic under same seed"
        (Clock.total_ns a) (Clock.total_ns b)
  | _ -> Alcotest.fail "a run OOMed"

let run_spark_sd_pagerank_recompute () =
  let p = Spark_profiles.pagerank in
  let s =
    Setups.spark_sd ~faults:recompute_plan
      ~heap_gb:(48 - Spark_profiles.dr2_gb) ()
  in
  Spark_driver.run ~label:"sd-recompute" ?faults:s.Setups.faults s.Setups.ctx p

let run_giraph_ooc_bfs_recompute () =
  let p = Giraph_profiles.bfs in
  let s =
    Setups.giraph_ooc ~faults:recompute_plan
      ~heap_gb:p.Giraph_profiles.ooc_heap_gb ()
  in
  Giraph_driver.run ~label:"ooc-recompute" s.Setups.rt ~mode:s.Setups.mode
    ?ooc_device:s.Setups.ooc_device ?faults:s.Setups.g_faults p

let test_spark_sd_recomputes_lost_blocks () =
  check_recomputes_deterministically run_spark_sd_pagerank_recompute

let test_giraph_ooc_rereads_lost_edges () =
  check_recomputes_deterministically run_giraph_ooc_bfs_recompute

let suite =
  [
    Alcotest.test_case "plan presets and overrides parse" `Quick
      test_parse_presets;
    Alcotest.test_case "plan to_string round-trips" `Quick test_parse_roundtrip;
    Alcotest.test_case "phase(...) syntax parses" `Quick test_parse_phases;
    Alcotest.test_case "invalid plans rejected with reasons" `Quick
      test_parse_rejects_invalid;
    QCheck_alcotest.to_alcotest prop_plan_roundtrip;
    Alcotest.test_case "zero-rate plan is byte-identical to no injector"
      `Quick test_zero_rate_plan_is_transparent;
    Alcotest.test_case "clock delta = pure + backoff + penalty" `Quick
      test_backoff_and_penalty_account_for_clock_delta;
    Alcotest.test_case "exponential backoff grows and caps" `Quick
      test_backoff_grows_and_caps;
    Alcotest.test_case "checked I/O raises, unchecked waits out a timeout"
      `Quick test_checked_raises_unchecked_waits;
    Alcotest.test_case "H2 exhaustion degrades instead of aborting" `Quick
      test_h2_exhaustion_degrades_instead_of_aborting;
    Alcotest.test_case "OOM snapshot stays readable" `Quick
      test_oom_result_is_defensive;
    Alcotest.test_case "Spark PageRank completes degraded under faults" `Slow
      test_spark_pagerank_degrades_not_crashes;
    Alcotest.test_case "Giraph BFS completes degraded under faults" `Slow
      test_giraph_bfs_degrades_not_crashes;
    Alcotest.test_case "Spark-SD recomputes unreadable cached blocks" `Slow
      test_spark_sd_recomputes_lost_blocks;
    Alcotest.test_case "Giraph-OOC rebuilds unreadable edge partitions" `Slow
      test_giraph_ooc_rereads_lost_edges;
  ]

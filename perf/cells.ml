(* The benchmark's workloads: paper configurations that already appear
   in the fig6 and soak sections of the figure harness, driven through
   the public setup and driver APIs only.

   A cell builds its own simulated stack, runs one driver, and reduces
   the outcome to a digest (the correctness check) and the per-layer
   counts the traced pass reports. *)

open Th_sim
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Giraph_profiles = Th_workloads.Giraph_profiles
module Spark_driver = Th_workloads.Spark_driver
module Giraph_driver = Th_workloads.Giraph_driver
module Streaming_driver = Th_workloads.Streaming_driver
module Run_result = Th_workloads.Run_result
module Runtime = Th_psgc.Runtime
module Policy = Th_policy.Policy
module H2 = Th_core.H2
module Device = Th_device.Device
module Page_cache = Th_device.Page_cache
module Recorder = Th_trace.Recorder
module Verify = Th_verify.Verify
module Monitor = Th_resilience.Monitor
module Breaker = Th_resilience.Breaker
module Slo = Th_resilience.Slo
module Wall = Th_exec.Wall

(* A built stack, ready to run. *)
type stack = {
  rt : Runtime.t;
  clock : Clock.t;
  devices : Device.t list;
  page_cache : Page_cache.t option;
      (** the H2 page cache, or the Spark-SD off-heap cache *)
  drive : Monitor.t option -> Run_result.t;
}

type observers = { record : bool; verify : bool; monitor : bool }

let unobserved = { record = false; verify = false; monitor = false }

type cell = {
  name : string;  (** key in expected.digests *)
  seeded : bool;  (** the outcome depends on [--seed] *)
  observers : observers;
  build : seed:int64 option -> policy:Policy.t option -> stack;
}

type result = {
  digest : string;  (** hex MD5 of the run's simulated outcome *)
  violations : int;  (** sanitizer violations, when one is attached *)
  counts : (string * float) list;  (** per-layer counts, fixed order *)
}

(* Same mutator-thread count as the figure harness's cells. *)
let costs () = Costs.with_mutator_threads Setups.default_costs 8

let devices opts = List.filter_map Fun.id opts

let h2_page_cache rt = Option.map H2.page_cache (Runtime.h2 rt)

(* ------------------------------------------------------------------ *)
(* Workload cells                                                      *)

type spark_system = Spark_sd | Spark_th

let spark ?(observers = unobserved) system profile dram =
  let p = Spark_profiles.by_name profile in
  let heap_gb = dram - Spark_profiles.dr2_gb in
  let system_name =
    match system with Spark_sd -> "Spark-SD" | Spark_th -> "TeraHeap"
  in
  let label = Printf.sprintf "%s %s@%dGB" system_name profile dram in
  {
    name = Printf.sprintf "spark/%s@%dGB/%s" profile dram system_name;
    seeded = false;
    observers;
    build =
      (fun ~seed:_ ~policy ->
        let costs = costs () in
        let s =
          match system with
          | Spark_sd -> Setups.spark_sd ~costs ~heap_gb ()
          | Spark_th ->
              Setups.spark_teraheap ~costs ?policy
                ~huge_pages:p.Spark_profiles.sequential ~h1_gb:heap_gb
                ~dr2_gb:Spark_profiles.dr2_gb ()
        in
        let rt = s.Setups.ctx.Th_spark.Context.rt in
        {
          rt;
          clock = s.Setups.clock;
          devices = devices [ s.Setups.h2_device; s.Setups.offheap_device ];
          page_cache =
            (match h2_page_cache rt with
            | Some pc -> Some pc
            | None -> s.Setups.ctx.Th_spark.Context.offheap);
          drive =
            (fun _ ->
              Spark_driver.run ?h2_device:s.Setups.h2_device
                ?faults:s.Setups.faults ~label s.Setups.ctx p);
        });
  }

type giraph_system = Giraph_ooc | Giraph_th

let giraph system profile =
  let p = Giraph_profiles.by_name profile in
  let system_name =
    match system with Giraph_ooc -> "Giraph-OOC" | Giraph_th -> "TeraHeap"
  in
  let label =
    Printf.sprintf "%s %s@%dGB" system_name profile p.Giraph_profiles.dram_gb
  in
  {
    name = Printf.sprintf "giraph/%s/%s" profile system_name;
    seeded = true;
    observers = unobserved;
    build =
      (fun ~seed ~policy ->
        let costs = costs () in
        let s =
          match system with
          | Giraph_ooc ->
              Setups.giraph_ooc ~costs ~heap_gb:p.Giraph_profiles.ooc_heap_gb ()
          | Giraph_th ->
              Setups.giraph_teraheap ~costs ?policy
                ~h1_gb:p.Giraph_profiles.th_h1_gb
                ~dr2_gb:(max 4 p.Giraph_profiles.th_dr2_gb)
                ()
        in
        {
          rt = s.Setups.rt;
          clock = s.Setups.g_clock;
          devices = devices [ s.Setups.ooc_device; s.Setups.g_h2_device ];
          page_cache = h2_page_cache s.Setups.rt;
          drive =
            (fun _ ->
              Giraph_driver.run ~label s.Setups.rt ~mode:s.Setups.mode
                ?ooc_device:s.Setups.ooc_device ?h2_device:s.Setups.g_h2_device
                ?faults:s.Setups.g_faults ?seed p);
        });
  }

(* The soak section's bench-scale profile: long enough for the wear-out
   schedule to reach its terminal phase and for the breaker to cycle. *)
let soak_profile =
  {
    Streaming_driver.soak with
    Streaming_driver.name = "bench-soak";
    batches = 400;
    batch_interval_ns = 1e9;
  }

let streaming ~name profile =
  {
    name = Printf.sprintf "streaming/%s/wearout" name;
    seeded = true;
    observers = { record = true; verify = true; monitor = true };
    build =
      (fun ~seed ~policy ->
        let profile =
          match seed with
          | Some seed -> { profile with Streaming_driver.seed }
          | None -> profile
        in
        let s =
          Setups.streaming_teraheap ?policy ~faults:Fault.wearout
            ~h1_gb:profile.Streaming_driver.h1_gb
            ~dr2_gb:profile.Streaming_driver.dr2_gb ()
        in
        {
          rt = s.Setups.s_rt;
          clock = s.Setups.s_clock;
          devices = devices [ s.Setups.s_h2_device ];
          page_cache = h2_page_cache s.Setups.s_rt;
          drive =
            (fun monitor ->
              Streaming_driver.run ~label:profile.Streaming_driver.name
                ?h2_device:s.Setups.s_h2_device ?faults:s.Setups.s_faults
                ?monitor s.Setups.s_rt profile);
        });
  }

type workload = {
  workload : string;
  pass_s : float;
      (** nominal host seconds per pass on a 2-core 2.1 GHz Xeon VM; sets
          how many passes fill a run's time budget *)
  cells : cell list;
}

let workloads =
  [
    {
      workload = "spark-th";
      pass_s = 0.85;
      cells = [ spark Spark_th "PR" 80; spark Spark_th "LR" 70 ];
    };
    {
      workload = "spark-sd";
      pass_s = 4.3;
      cells = [ spark Spark_sd "PR" 80; spark Spark_sd "LR" 70 ];
    };
    {
      workload = "giraph-ooc";
      pass_s = 5.0;
      cells = [ giraph Giraph_ooc "PR"; giraph Giraph_ooc "BFS" ];
    };
    {
      workload = "giraph-th";
      pass_s = 0.8;
      cells = [ giraph Giraph_th "PR"; giraph Giraph_th "BFS" ];
    };
    {
      workload = "observed";
      pass_s = 1.65;
      cells =
        [
          spark
            ~observers:{ record = true; verify = true; monitor = false }
            Spark_th "PR" 80;
          streaming ~name:"soak" soak_profile;
        ];
    };
  ]

(* A fraction of a second: the tests' streaming profile plus the Spark
   workload with the smallest TeraHeap run. *)
let smoke =
  [ streaming ~name:"smoke" Streaming_driver.smoke; spark Spark_th "TR" 80 ]

let find name = List.find_opt (fun w -> String.equal w.workload name) workloads

(* ------------------------------------------------------------------ *)
(* Digest and counts                                                   *)

let outcome_name = function
  | Run_result.Completed -> "completed"
  | Run_result.Degraded -> "degraded"
  | Run_result.Oom -> "oom"

(* Every simulated statistic the run exposes, floats in exact hex. A
   host-side change that keeps the simulation identical keeps this
   string identical. *)
let fingerprint (r : Run_result.t) stack =
  let b = Buffer.create 512 in
  let add fmt = Printf.bprintf b fmt in
  add "outcome=%s oom=%s\n" (outcome_name r.Run_result.outcome)
    (Option.value ~default:"-" r.Run_result.oom_reason);
  (match r.Run_result.breakdown with
  | Some d ->
      add "clock=%h,%h,%h,%h\n" d.Clock.other_ns d.Clock.serde_io_ns
        d.Clock.minor_gc_ns d.Clock.major_gc_ns
  | None -> add "clock=-\n");
  add "gcs=%d,%d\n" r.Run_result.minor_gcs r.Run_result.major_gcs;
  Option.iter
    (fun (s : H2.stats) ->
      add "h2=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%h,%d,%d,%d\n"
        s.H2.regions_allocated s.H2.regions_reclaimed s.H2.regions_active
        s.H2.used_bytes s.H2.wasted_bytes s.H2.dep_nodes s.H2.moves_to_h2
        s.H2.bytes_moved s.H2.readback_bytes s.H2.rmw_bytes
        s.H2.minor_scan_time_ns s.H2.degraded_moves s.H2.objects_deferred
        s.H2.flush_deferrals)
    r.Run_result.h2_stats;
  List.iter
    (fun dev ->
      let s = Device.stats dev in
      add "device=%d,%d,%d,%d\n" s.Device.bytes_read s.Device.bytes_written
        s.Device.read_ops s.Device.write_ops)
    stack.devices;
  Option.iter
    (fun pc ->
      let s = Page_cache.stats pc in
      add "page_cache=%d,%d,%d,%d\n" s.Page_cache.hits s.Page_cache.misses
        s.Page_cache.evictions s.Page_cache.writebacks)
    stack.page_cache;
  Option.iter
    (fun (s : Fault.stats) ->
      add "faults=%d,%d,%d,%d,%d,%d,%h,%h,%d,%d,%d,%d,%d\n" s.Fault.read_errors
        s.Fault.write_errors s.Fault.spiked_ops s.Fault.stalls
        s.Fault.enospc_rejections s.Fault.retries s.Fault.backoff_ns
        s.Fault.penalty_ns s.Fault.exhausted_retries s.Fault.watchdog_timeouts
        s.Fault.recomputes s.Fault.h2_degraded_events
        s.Fault.h2_objects_deferred)
    r.Run_result.faults;
  Option.iter
    (fun (s : Monitor.summary) ->
      add "monitor=%d,%d,%d,%d,%d,%d\n" s.Monitor.breaker.Breaker.trips
        s.Monitor.samples s.Monitor.moves_suppressed
        s.Monitor.fallback_serializations s.Monitor.deferred_batches
        s.Monitor.slo_violations)
    r.Run_result.resilience;
  Buffer.contents b

let mb bytes = float_of_int bytes /. 1e6

let counts (r : Run_result.t) stack recorder =
  let h2 field =
    match r.Run_result.h2_stats with Some s -> field s | None -> 0
  in
  let dev =
    List.fold_left
      (fun (a : Device.stats) d ->
        let s = Device.stats d in
        {
          Device.bytes_read = a.Device.bytes_read + s.Device.bytes_read;
          bytes_written = a.Device.bytes_written + s.Device.bytes_written;
          read_ops = a.Device.read_ops + s.Device.read_ops;
          write_ops = a.Device.write_ops + s.Device.write_ops;
        })
      { Device.bytes_read = 0; bytes_written = 0; read_ops = 0; write_ops = 0 }
      stack.devices
  in
  let pc =
    match stack.page_cache with
    | Some pc -> Page_cache.stats pc
    | None ->
        { Page_cache.hits = 0; misses = 0; evictions = 0; writebacks = 0 }
  in
  let faults = Option.value ~default:Fault.zero_stats r.Run_result.faults in
  let int n = float_of_int n in
  [
    ("minijvm.objects", int (Runtime.heap stack.rt).Th_minijvm.H1_heap.next_id);
    ("minijvm.barriers", int (Runtime.barrier_checks stack.rt));
    ("core.moves", int (h2 (fun s -> s.H2.moves_to_h2)));
    ("core.moved_mb", mb (h2 (fun s -> s.H2.bytes_moved)));
    ("core.readback_mb", mb (h2 (fun s -> s.H2.readback_bytes)));
    ("core.rmw_mb", mb (h2 (fun s -> s.H2.rmw_bytes)));
    ("core.regions_reclaimed", int (h2 (fun s -> s.H2.regions_reclaimed)));
    ("page_cache.hits", int pc.Page_cache.hits);
    ("page_cache.misses", int pc.Page_cache.misses);
    ("device.read_ops", int dev.Device.read_ops);
    ("device.write_ops", int dev.Device.write_ops);
    ("device.read_mb", mb dev.Device.bytes_read);
    ("device.write_mb", mb dev.Device.bytes_written);
    ( "trace.events",
      int (match recorder with Some tr -> Recorder.total tr | None -> 0) );
    ( "trace.dropped",
      int (match recorder with Some tr -> Recorder.dropped tr | None -> 0) );
    ("sim.faults_injected", int (Fault.faults_injected faults));
    ("sim.retries", int faults.Fault.retries);
  ]

(* ------------------------------------------------------------------ *)
(* Running a cell                                                      *)

let in_span probe layer f =
  match probe with Some p -> Probe.span p layer f | None -> f ()

type prepared = {
  stack : stack;
  recorder : Recorder.t option;
  verifier : Verify.t option;
  monitor : Monitor.t option;
  prepare_s : float;
}

(* Build the cell's stack and attach its observers, in the order the
   monitor requires: recorder, verifier, then the monitor chained onto
   the verifier's hook. *)
let prepare ?probe ~seed cell =
  let t0 = Wall.now_s () in
  let policy =
    Option.map (fun p -> Probe.wrap_policy p Policy.threshold) probe
  in
  let stack = in_span probe Probe.Setup (fun () -> cell.build ~seed ~policy) in
  let o = cell.observers in
  let recorder =
    if o.record then begin
      let tr = Recorder.create ~lane:0 () in
      Clock.set_tracer stack.clock (Some tr);
      Some tr
    end
    else None
  in
  let verifier =
    if o.verify then Some (Verify.attach stack.rt Verify.Safepoint) else None
  in
  Option.iter (fun p -> Probe.wrap_verify p stack.rt) probe;
  let monitor =
    if o.monitor then Some (Monitor.attach ~slo:Slo.default stack.rt) else None
  in
  Option.iter (fun p -> Probe.wrap_safepoints p stack.rt) probe;
  { stack; recorder; verifier; monitor; prepare_s = Wall.elapsed_s ~since:t0 }

let setup_s ~seed cell = (prepare ~seed cell).prepare_s

let run ?probe ~seed cell =
  let p = prepare ?probe ~seed cell in
  let r =
    match probe with
    | Some probe ->
        Probe.run probe ~name:cell.name (fun () -> p.stack.drive p.monitor)
    | None -> p.stack.drive p.monitor
  in
  {
    digest = Digest.to_hex (Digest.string (fingerprint r p.stack));
    violations = Option.fold ~none:0 ~some:Verify.violation_count p.verifier;
    counts = counts r p.stack p.recorder;
  }

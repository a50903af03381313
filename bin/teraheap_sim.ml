(* Command-line front end: run one or more workloads (comma-separated)
   under one system configuration and print each execution-time breakdown
   and GC/H2 statistics. Multiple workloads run on a domain pool
   (`--jobs`); results print serially in argument order. *)

open Th_sim
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Giraph_profiles = Th_workloads.Giraph_profiles
module Spark_driver = Th_workloads.Spark_driver
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result
module Streaming_driver = Th_workloads.Streaming_driver
module Gc_stats = Th_psgc.Gc_stats
module Runtime = Th_psgc.Runtime
module H2 = Th_core.H2
module Verify = Th_verify.Verify
module Monitor = Th_resilience.Monitor
module Slo = Th_resilience.Slo

let outcome_name = function
  | Run_result.Completed -> "completed"
  | Run_result.Degraded -> "degraded"
  | Run_result.Oom -> "oom"

let print_result (r : Run_result.t) =
  (match r.Run_result.breakdown with
  | None ->
      Printf.printf "%s: OUT OF MEMORY (%s)\n" r.Run_result.label
        (Option.value ~default:"?" r.Run_result.oom_reason);
      (match r.Run_result.census with
      | Some census -> Format.printf "%a" Th_psgc.Heap_census.pp census
      | None -> ())
  | Some b ->
      Format.printf "%s: %a@." r.Run_result.label Clock.pp_breakdown b);
  (match r.Run_result.outcome with
  | Run_result.Completed -> ()
  | outcome -> Printf.printf "  outcome: %s\n" (outcome_name outcome));
  Printf.printf "  minor GCs: %d   major GCs: %d\n" r.Run_result.minor_gcs
    r.Run_result.major_gcs;
  (match r.Run_result.h2_stats with
  | Some s ->
      Printf.printf
        "  H2: %d objects moved (%s), regions alloc/reclaimed/active: \
         %d/%d/%d, dep nodes: %d\n"
        s.H2.moves_to_h2
        (Size.to_string s.H2.bytes_moved)
        s.H2.regions_allocated s.H2.regions_reclaimed s.H2.regions_active
        s.H2.dep_nodes
  | None -> ());
  (match r.Run_result.h2_device with
  | Some d -> Format.printf "  H2 device: %a@." Th_device.Device.pp_stats d
  | None -> ());
  (match r.Run_result.faults with
  | Some fs -> Th_metrics.Report.print_fault_summary ~label:"run" fs
  | None -> ());
  match r.Run_result.resilience with
  | Some s -> Format.printf "  resilience: %a@." Monitor.pp_summary s
  | None -> ()

let run_spark ?tracer name system threads dram_override faults verify =
  let p = Spark_profiles.by_name name in
  let costs = Costs.with_mutator_threads Setups.default_costs threads in
  let dram =
    if dram_override > 0 then dram_override
    else List.fold_left max 0 p.Spark_profiles.sd_dram_gb
  in
  let heap_gb = dram - Spark_profiles.dr2_gb in
  let setup, label =
    match system with
    | "sd" -> (Setups.spark_sd ~costs ?faults ~heap_gb (), "Spark-SD")
    | "sd-nvm" ->
        ( Setups.spark_sd ~device_kind:Th_device.Device.Nvm_app_direct ~costs
            ?faults ~heap_gb (),
          "Spark-SD/NVM" )
    | "mo" ->
        ( Setups.spark_mo ~costs ~heap_gb:p.Spark_profiles.mo_heap_gb
            ~dram_gb:dram (),
          "Spark-MO" )
    | "ps11" ->
        ( Setups.spark_sd ~collector:Th_psgc.Rt.Ps_jdk11 ~costs ?faults
            ~heap_gb (),
          "PS/JDK11" )
    | "g1" ->
        ( Setups.spark_sd ~collector:Th_psgc.Rt.G1 ~costs ?faults ~heap_gb (),
          "G1/JDK17" )
    | "panthera" -> (Setups.spark_panthera ~costs ~heap_gb:64 (), "Panthera")
    | "th" ->
        ( Setups.spark_teraheap ~costs ~huge_pages:p.Spark_profiles.sequential
            ?faults ~h1_gb:heap_gb ~dr2_gb:Spark_profiles.dr2_gb (),
          "TeraHeap" )
    | "th-nvm" ->
        ( Setups.spark_teraheap ~device_kind:Th_device.Device.Nvm_app_direct
            ~costs ~huge_pages:p.Spark_profiles.sequential ?faults
            ~h1_gb:heap_gb ~dr2_gb:Spark_profiles.dr2_gb (),
          "TeraHeap/NVM" )
    | other -> failwith ("unknown spark system: " ^ other)
  in
  let label = Printf.sprintf "%s %s (DRAM %dGB)" p.Spark_profiles.name label dram in
  Clock.set_tracer setup.Setups.clock tracer;
  let v =
    Verify.attach (Th_spark.Context.runtime setup.Setups.ctx) verify
  in
  let r =
    Spark_driver.run ~label ?h2_device:setup.Setups.h2_device
      ?faults:setup.Setups.faults setup.Setups.ctx p
  in
  (r, v)

let run_giraph ?tracer name system threads faults verify :
    Run_result.t * Verify.t =
  let p = Giraph_profiles.by_name name in
  let costs = Costs.with_mutator_threads Setups.default_costs threads in
  let result =
    match system with
    | "ooc" ->
        let s =
          Setups.giraph_ooc ~costs ?faults
            ~heap_gb:p.Giraph_profiles.ooc_heap_gb ()
        in
        Clock.set_tracer s.Setups.g_clock tracer;
        let v = Verify.attach s.Setups.rt verify in
        ( Giraph_driver.run
            ~label:(p.Giraph_profiles.name ^ " Giraph-OOC")
            s.Setups.rt ~mode:s.Setups.mode ?ooc_device:s.Setups.ooc_device
            ?faults:s.Setups.g_faults p,
          v )
    | "th" ->
        let s =
          Setups.giraph_teraheap ~costs ?faults
            ~h1_gb:p.Giraph_profiles.th_h1_gb
            ~dr2_gb:p.Giraph_profiles.th_dr2_gb ()
        in
        Clock.set_tracer s.Setups.g_clock tracer;
        let v = Verify.attach s.Setups.rt verify in
        ( Giraph_driver.run
            ~label:(p.Giraph_profiles.name ^ " TeraHeap")
            s.Setups.rt ~mode:s.Setups.mode ?h2_device:s.Setups.g_h2_device
            ?faults:s.Setups.g_faults p,
          v )
    | other -> failwith ("unknown giraph system: " ^ other)
  in
  result

(* The streaming service always carries the resilience monitor: circuit
   breaker on the move-to-H2 path, watchdog-armed retry policy, SLO
   compliance over the pause tail. [--soak] upgrades the run to the
   chaos-soak configuration (wear-out fault schedule unless --faults was
   given). *)
let run_streaming ?tracer name threads faults verify slo soak :
    Run_result.t * Verify.t =
  let p =
    match Streaming_driver.by_name name with
    | Some p -> p
    | None -> failwith ("unknown streaming profile: " ^ name)
  in
  let costs = Costs.with_mutator_threads Setups.default_costs threads in
  let faults =
    match faults with
    | Some _ -> faults
    | None -> if soak then Some Fault.wearout else None
  in
  let s =
    Setups.streaming_teraheap ~costs ?faults
      ~h1_gb:p.Streaming_driver.h1_gb ~dr2_gb:p.Streaming_driver.dr2_gb ()
  in
  Clock.set_tracer s.Setups.s_clock tracer;
  let v = Verify.attach s.Setups.s_rt verify in
  let monitor =
    Monitor.attach ~slo:(Option.value slo ~default:Slo.default) s.Setups.s_rt
  in
  let label =
    Printf.sprintf "%s Streaming-TeraHeap" p.Streaming_driver.name
  in
  ( Streaming_driver.run ~label ?h2_device:s.Setups.s_h2_device
      ?faults:s.Setups.s_faults ~monitor s.Setups.s_rt p,
    v )

open Cmdliner

let framework =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [
                ("spark", `Spark);
                ("giraph", `Giraph);
                ("streaming", `Streaming);
              ]))
        None
    & info [] ~docv:"FRAMEWORK" ~doc:"spark, giraph or streaming")

let workload =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:"Spark: PR CC SSSP SVD TR LR LgR SVM BC RL KM; Giraph: PR CDLP \
              WCC BFS SSSP; Streaming: smoke soak. Comma-separate several \
              to run them on the domain pool (see $(b,--jobs)).")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"worker domains for multi-workload runs; 0 means the \
              machine's recommended domain count")

let system =
  Arg.(
    value & opt string "th"
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"Spark: sd, sd-nvm, mo, ps11, g1, panthera, th, th-nvm. Giraph: \
              ooc, th.")

let threads =
  Arg.(
    value & opt int 8
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"executor mutator threads")

let dram =
  Arg.(
    value & opt int 0
    & info [ "d"; "dram" ] ~docv:"GB"
        ~doc:"total DRAM (paper GB); 0 uses the workload's largest Figure-6 \
              configuration (Spark only)")

let fault_spec_conv =
  let parse s =
    match Fault.parse s with
    | Result.Ok plan -> Ok plan
    | Result.Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"SPEC"
    (parse, fun ppf p -> Format.fprintf ppf "%s" (Fault.plan_to_string p))

let faults =
  Arg.(
    value
    & opt (some fault_spec_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Fault-injection plan for the storage devices: 'default', \
              'harsh', or comma-separated key=value pairs (seed, read_err, \
              write_err, spike, spike_factor, spike_us, stall, stall_us, \
              full, full_us), e.g. 'default,seed=7'. Phased schedules \
              chain phase(...) groups with dur_us/dur_ms/dur_s durations \
              — e.g. 'phase(none,dur_ms=80),phase(harsh,dur_ms=20),cycle' \
              — and 'wearout'/'bursty' name preset schedules. Same seed, \
              same injected fault sequence.")

let slo_spec_conv =
  let parse s =
    match Slo.parse s with
    | Result.Ok spec -> Ok spec
    | Result.Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"SLO"
    (parse, fun ppf s -> Format.fprintf ppf "%s" (Slo.to_string s))

let slo =
  Arg.(
    value
    & opt (some slo_spec_conv) None
    & info [ "slo" ] ~docv:"SLO"
        ~doc:"Service-level objective for streaming runs, e.g. \
              'p99_ms=40,degraded_max=0.25': p99 GC-pause budget and the \
              largest acceptable fraction of run time with the H2 circuit \
              breaker open. The run report includes pause tails \
              (p50/p99/p999) and per-objective compliance.")

let soak =
  Arg.(
    value & flag
    & info [ "soak" ]
        ~doc:"Chaos-soak mode for streaming runs: applies the 'wearout' \
              phased fault schedule when $(b,--faults) is not given. \
              Combine with $(b,--verify) safepoint and $(b,--trace) for \
              the full soak harness.")

let verify_level =
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Verify.Off);
             ("safepoint", Verify.Safepoint);
             ("paranoid", Verify.Paranoid);
           ])
        Verify.Off
    & info [ "verify" ] ~docv:"LEVEL"
        ~doc:
          "Heap-state sanitizer level: 'off', 'safepoint' (check H1/H2 \
           invariants at every GC safepoint) or 'paranoid' (additionally \
           run a from-scratch reachability census). Violations print to \
           stderr and make the run exit non-zero; stdout is byte-identical \
           to an unverified run.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a flight-recorder trace of the run (GC phases, \
           safepoints, H2 region/card activity, device I/O, faults, \
           framework stages) and write it to $(docv). Off by default; \
           when off, no recording happens and stdout is byte-identical. \
           With several workloads each gets its own trace lane, merged \
           in argument order — the file does not depend on $(b,--jobs).")

let trace_format =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("text", `Text) ]) `Chrome
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "'chrome' (trace-event JSON, loadable in Perfetto or \
           chrome://tracing) or 'text' (the compact deterministic form \
           used by the golden tests).")

let write_trace ~path ~format recorders =
  let events = Th_trace.Export.merge recorders in
  let data =
    match format with
    | `Chrome -> Th_trace.Export.to_chrome_json events
    | `Text -> Th_trace.Export.to_text events
  in
  let oc = open_out path in
  output_string oc data;
  close_out oc

(* Cost hint for the scheduler: the same heap-size × iteration heuristic
   the bench harness uses (bench/runners.ml). Unknown workload names get
   the default cost — the cell itself reports the error when it runs. *)
let cost_hint fw name dram =
  match fw with
  | `Spark -> (
      match Spark_profiles.by_name name with
      | p ->
          let dram =
            if dram > 0 then dram
            else List.fold_left max 0 p.Spark_profiles.sd_dram_gb
          in
          float_of_int (max 1 dram * max 1 p.Spark_profiles.iterations)
      | exception _ -> Th_exec.Cell.default_cost)
  | `Giraph -> (
      match Giraph_profiles.by_name name with
      | p ->
          float_of_int
            (max 1 p.Giraph_profiles.dram_gb
            * max 1 p.Giraph_profiles.dataset_gb)
      | exception _ -> Th_exec.Cell.default_cost)
  | `Streaming -> Th_exec.Cell.default_cost

(* Split the WORKLOAD argument on commas, run every cell on the
   domain scheduler, then print the results serially in argument
   order. *)
let run_all fw workloads sys thr dram faults jobs verify trace trace_format
    slo soak =
  let names = String.split_on_char ',' workloads in
  let recorders =
    match trace with
    | None -> []
    | Some _ ->
        List.mapi (fun lane _ -> Th_trace.Recorder.create ~lane ()) names
  in
  let tracer_of lane =
    match recorders with [] -> None | rs -> Some (List.nth rs lane)
  in
  let cell lane name =
    Th_exec.Cell.make ~label:name ~cost:(cost_hint fw name dram) ~lane
      (fun () ->
        let tracer = tracer_of lane in
        match fw with
        | `Spark -> run_spark ?tracer name sys thr dram faults verify
        | `Giraph -> run_giraph ?tracer name sys thr faults verify
        | `Streaming -> run_streaming ?tracer name thr faults verify slo soak)
  in
  let cells = List.mapi cell names in
  let results =
    match cells with
    | [ c ] -> [ c.Th_exec.Cell.run () ]
    | _ ->
        let jobs =
          if jobs > 0 then jobs else Th_exec.Scheduler.default_jobs ()
        in
        Th_exec.Scheduler.with_scheduler ~jobs (fun sched ->
            Th_exec.Scheduler.run_cells sched cells)
  in
  List.iter (fun (r, _) -> print_result r) results;
  (match trace with
  | None -> ()
  | Some path -> write_trace ~path ~format:trace_format recorders);
  let total_violations =
    List.fold_left (fun acc (_, v) -> acc + Verify.violation_count v) 0 results
  in
  if total_violations > 0 then begin
    List.iter
      (fun ((r : Run_result.t), v) ->
        if Verify.violation_count v > 0 then
          Printf.eprintf "%s: %s" r.Run_result.label (Verify.report v))
      results;
    exit 1
  end

let cmd =
  let doc = "Run one big-data workload on the TeraHeap simulator" in
  Cmd.v
    (Cmd.info "teraheap_sim" ~doc)
    Term.(
      const run_all $ framework $ workload $ system $ threads $ dram $ faults
      $ jobs $ verify_level $ trace_file $ trace_format $ slo $ soak)

let () = exit (Cmd.eval cmd)

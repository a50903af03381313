(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6–§7). Run all experiments with `dune exec bench/main.exe`,
   or select sections: `dune exec bench/main.exe -- fig6 fig7 ...`.
   `micro` runs the bechamel micro-benchmarks of the core structures.

   Every section declares a plan: independent experiment cells plus a
   pure render that consumes results in submission order. The harness
   concatenates the cells of all requested sections into ONE global
   batch for the domain scheduler (`--jobs N` / `-j N` selects
   the domain count, defaulting to the machine's recommended count),
   then runs the renders serially in request order — so stdout is
   byte-identical for every jobs value. Timing goes to stderr, and a
   machine-readable summary of this run is written to BENCH_harness.json
   (override the path with the TH_BENCH_JSON environment variable). *)

module Scheduler = Th_exec.Scheduler
module Plan = Th_exec.Plan
module Wall = Th_exec.Wall
module Bench_log = Th_metrics.Bench_log

let sections : (string * string * (unit -> Plan.section)) list =
  [
    ("table5", "H2 metadata size per TB vs region size", Table5.plan);
    ("fig6", "TeraHeap vs Spark-SD / Giraph-OOC, DRAM sweep", Fig6.plan);
    ("fig7", "GC timeline and old-gen occupancy, Spark-PR", Fig7.plan);
    ("fig8", "PS-JDK11 and G1-JDK17 collectors vs TeraHeap", Fig8.plan);
    ("fig9", "transfer hint and low-threshold policies", Fig9.plan);
    ("fig10", "CDF of live objects/space per H2 region", Fig10.plan);
    ("fig11", "H2 card segment sizes; major GC phases", Fig11.plan);
    ("fig12", "NVM server: Spark-SD, Spark-MO, Panthera", Fig12.plan);
    ("fig13", "scaling with threads and dataset size", Fig13.plan);
    ("extras", "write-barrier overhead; union-find ablation", Extras.plan);
    ( "tournament",
      "H2 placement-policy tournament with oracle upper bound",
      Tournament.plan );
    ("soak", "chaos soak: streaming under phased faults, breaker A/B", Soak.plan);
    ("micro", "bechamel micro-benchmarks", Micro.plan);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--seed N] [SECTION ...]\navailable sections: \
     %s\n"
    (String.concat ", " (List.map (fun (n, _, _) -> n) sections))

(* Minimal flag parsing: `--jobs N`, `-j N`, `--jobs=N`, `--seed N`,
   `--seed=N`, `--trace FILE`, `--trace-format chrome|text`; every other
   argument is a section name. *)
let parse_args argv =
  let jobs = ref (Scheduler.default_jobs ()) in
  let seed = ref None in
  let trace = ref None in
  let trace_format = ref `Chrome in
  let names = ref [] in
  let int_of ~flag s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
        Printf.eprintf "%s expects an integer, got %S\n" flag s;
        usage ();
        exit 2
  in
  let rec go = function
    | [] -> ()
    | ("--jobs" | "-j") :: v :: rest ->
        jobs := int_of ~flag:"--jobs" v;
        go rest
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "--jobs expects a value\n";
        usage ();
        exit 2
    | "--seed" :: v :: rest ->
        seed := Some (int_of ~flag:"--seed" v);
        go rest
    | "--seed" :: [] ->
        Printf.eprintf "--seed expects a value\n";
        usage ();
        exit 2
    | "--trace" :: v :: rest ->
        trace := Some v;
        go rest
    | "--trace" :: [] ->
        Printf.eprintf "--trace expects a file path\n";
        usage ();
        exit 2
    | "--trace-format" :: v :: rest ->
        (match v with
        | "chrome" -> trace_format := `Chrome
        | "text" -> trace_format := `Text
        | other ->
            Printf.eprintf "--trace-format expects chrome or text, got %S\n"
              other;
            usage ();
            exit 2);
        go rest
    | "--trace-format" :: [] ->
        Printf.eprintf "--trace-format expects a value\n";
        usage ();
        exit 2
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: rest ->
        (match
           ( String.length arg > 7 && String.sub arg 0 7 = "--jobs=",
             String.length arg > 7 && String.sub arg 0 7 = "--seed=" )
         with
        | true, _ ->
            jobs :=
              int_of ~flag:"--jobs"
                (String.sub arg 7 (String.length arg - 7))
        | _, true ->
            seed :=
              Some
                (int_of ~flag:"--seed"
                   (String.sub arg 7 (String.length arg - 7)))
        | false, false -> names := arg :: !names);
        go rest
  in
  go (List.tl (Array.to_list argv));
  (max 1 !jobs, !seed, !trace, !trace_format, List.rev !names)

let sum_slice (arr : float array) ~offset ~count =
  let s = ref 0.0 in
  for i = offset to offset + count - 1 do
    s := !s +. arr.(i)
  done;
  !s

let () =
  let jobs, seed, trace, trace_format, requested = parse_args Sys.argv in
  let requested =
    match requested with
    | [] -> List.map (fun (name, _, _) -> name) sections
    | names -> names
  in
  let selected =
    List.filter_map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) sections with
        | Some s -> Some s
        | None ->
            Printf.eprintf "unknown section %s; available: %s\n" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) sections));
            None)
      requested
  in
  (match seed with
  | Some s -> Runners.giraph_seed := Some (Int64.of_int s)
  | None -> ());
  (* Sections that time host code with bechamel run after the shared
     batch, serially on this domain, with no worker domain alive:
     bechamel compacts the heap before each test until its live-word
     count repeats, which never happens while another domain allocates. *)
  let solo (name, _, _) = name = "micro" in
  let sched = Scheduler.create ~jobs () in
  let wall0 = Wall.now_s () in
  let log, cells =
    Fun.protect
      ~finally:(fun () -> Scheduler.shutdown sched)
      (fun () ->
        (* Build every requested plan first, then submit the cells of
           all shared sections as one global batch: the scheduler sees
           the whole cell population at once instead of 2–4 cells per
           section. *)
        let plans = List.map (fun (n, d, mk) -> (n, d, mk ())) selected in
        let indexed = List.mapi (fun i p -> (i, p)) plans in
        let shared, solos =
          List.partition (fun (_, p) -> not (solo p)) indexed
        in
        (* Per-section summed cell wall seconds, in request order, from
           whichever batch ran the section. *)
        let cell_walls = Array.make (List.length plans) 0.0 in
        let run_batch sched sections =
          ignore
            (Scheduler.run_cells sched
               (List.concat_map (fun (_, (_, _, s)) -> Plan.cells s) sections));
          let st = Scheduler.last_batch sched in
          ignore
            (List.fold_left
               (fun offset (i, (_, _, s)) ->
                 let count = List.length (Plan.cells s) in
                 cell_walls.(i) <-
                   sum_slice st.Scheduler.cell_wall_s ~offset ~count;
                 offset + count)
               0 sections);
          st
        in
        let stats = run_batch sched shared in
        Scheduler.shutdown sched;
        let solo_stats =
          Scheduler.with_scheduler ~jobs:1 (fun serial ->
              run_batch serial solos)
        in
        let cells = stats.Scheduler.cells + solo_stats.Scheduler.cells in
        (* Renders run serially in request order; each reads only its
           own section's futures. *)
        let timed =
          List.mapi
            (fun i ((n, d, s) as p) ->
              Printf.printf "\n##### %s — %s #####\n%!" n d;
              let r0 = Wall.now_s () in
              Plan.render s;
              {
                Bench_log.name = n;
                jobs = (if solo p then 1 else jobs);
                cells = List.length (Plan.cells s);
                cell_wall_s = cell_walls.(i);
                render_wall_s = Wall.elapsed_s ~since:r0;
              })
            plans
        in
        ( {
            Bench_log.jobs;
            sections = timed;
            total_wall_s = Wall.elapsed_s ~since:wall0;
          },
          cells ))
  in
  let json_path =
    match Sys.getenv_opt "TH_BENCH_JSON" with
    | Some p -> p
    | None -> Bench_log.default_path
  in
  Bench_log.write ~path:json_path log;
  (match trace with
  | Some path -> Trace_capture.run ~path ~format:trace_format
  | None -> ());
  (* Timing is jobs- and scheduling-dependent, so it goes to stderr:
     stdout stays byte-identical across --jobs values. *)
  Printf.eprintf
    "\n\
     (benchmarks completed in %.1f s wall, jobs=%d, measured speedup %.2fx \
     vs serial; %d cells; %s)\n"
    log.Bench_log.total_wall_s jobs
    (Bench_log.speedup_vs_serial_measured log)
    cells json_path

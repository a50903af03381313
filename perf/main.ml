(* Host-time benchmark for the simulator.

     dune exec perf/main.exe -- --workload NAME|all [--seed N]
                                 [--seconds S] [--trace 0|1]
     dune exec perf/main.exe -- --bless
     dune exec perf/main.exe -- --smoke

   One invocation runs one workload in a fresh process, closed loop on
   one domain: an untimed warm-up pass, then as many timed passes as fill
   [--seconds] at the workload's nominal pass time, each preceded by an
   untimed [Gc.compact]. It prints the passes, every cell's digest check
   and the end-to-end metrics, and as its last line one JSON object.
   With [--trace 1] half the budget goes to traced passes instead, the
   JSON carries the per-layer metrics, and the host-time spans are
   written to perf/traces/<workload>.json in Chrome trace-event
   format.

   [--workload all] runs every workload that way, each in its own
   process, and ends with one table of every end-to-end metric.
   [--bless] rewrites perf/expected.digests from one pass of every
   workload at the default seeds; [--smoke] is the quick self-check
   [dune runtest] runs. See perf/README.md. *)

(* Host timing is this program's output. Wall time comes from the
   monotonic clock through Th_exec.Wall; Sys.time gives each pass's CPU
   time beside it, which tells host preemption (wall above CPU) from a
   slower host. Neither feeds a simulated result, which all come from
   Th_sim.Clock. *)
[@@@th.allow "wall-clock"]

module Wall = Th_exec.Wall

let usage =
  "usage: main.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
  \       main.exe --bless | --smoke"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  traced : bool;
  wall_s : float;
  cpu_s : float;
  outcomes : (Cells.cell * (Cells.result, string) result) list;
  gc_minor_mw : float;
  gc_promoted_mw : float;
  gc_major_n : int;
  probe : Probe.t option;
}

let run_pass ~seed ~traced ~lane ~origin cells =
  Gc.compact ();
  let probe = if traced then Some (Probe.create ~lane ~origin) else None in
  let g0 = Gc.quick_stat () in
  let t0 = Wall.now_s () in
  let c0 = Sys.time () in
  let outcomes =
    List.map
      (fun cell ->
        ( cell,
          match Cells.run ?probe ~seed cell with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e) ))
      cells
  in
  let wall_s = Wall.elapsed_s ~since:t0 in
  let cpu_s = Sys.time () -. c0 in
  let g1 = Gc.quick_stat () in
  {
    traced;
    wall_s;
    cpu_s;
    outcomes;
    gc_minor_mw = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
    gc_promoted_mw = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6;
    gc_major_n = g1.Gc.major_collections - g0.Gc.major_collections;
    probe;
  }

(* The number of passes that fills [budget_s] at the workload's nominal
   pass time. It depends on the budget only, never on a measurement, so
   every run of a workload does the same work and ends with the same
   host heap. *)
let pass_count (w : Cells.workload) ~budget_s ~min =
  max min (int_of_float (Float.round (budget_s /. w.Cells.pass_s)))

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)

type check = { attempted : int; failed : int; notes : string list }

(* Every cell run of every pass must reproduce the cell's digest: the
   committed one when [expected] is given and the cell's inputs are the
   default ones, otherwise the first pass's. A run also fails on an
   exception or a sanitizer violation. *)
let check_passes ~workload ~expected ~default_seed passes =
  let truth (cell : Cells.cell) =
    match expected with
    | Some e when default_seed || not cell.Cells.seeded -> (
        match Expected.find e ~workload ~cell:cell.Cells.name with
        | Some d -> (Some d, "matches expected")
        | None -> (None, "no expected digest; run --bless"))
    | Some _ | None ->
        ( List.find_map
            (fun p ->
              List.find_map
                (fun ((c : Cells.cell), o) ->
                  match o with
                  | Ok (r : Cells.result)
                    when String.equal c.Cells.name cell.Cells.name ->
                      Some r.Cells.digest
                  | Ok _ | Error _ -> None)
                p.outcomes)
            passes,
          "repeats across passes" )
  in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        notes := msg :: !notes)
      fmt
  in
  List.iteri
    (fun i p ->
      List.iter
        (fun ((cell : Cells.cell), o) ->
          incr attempted;
          let name = cell.Cells.name in
          match (o, truth cell) with
          | Error e, _ -> fail "pass %d %s: exception %s" i name e
          | Ok r, _ when r.Cells.violations > 0 ->
              fail "pass %d %s: %d sanitizer violations" i name
                r.Cells.violations
          | Ok _, (None, why) -> fail "pass %d %s: %s" i name why
          | Ok r, (Some d, _) when not (String.equal r.Cells.digest d) ->
              fail "pass %d%s %s: digest %s, expected %s" i
                (if p.traced then " (traced)" else "")
                name r.Cells.digest d
          | Ok _, (Some _, _) -> ())
        p.outcomes)
    passes;
  let digests =
    match passes with
    | [] -> []
    | p :: _ ->
        List.map
          (fun ((cell : Cells.cell), o) ->
            let digest =
              match o with Ok r -> r.Cells.digest | Error _ -> "-"
            in
            Printf.sprintf "  %-36s %s  %s" cell.Cells.name digest
              (snd (truth cell)))
          p.outcomes
  in
  ( { attempted = !attempted; failed = !failed; notes = List.rev !notes },
    digests )

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* Units follow from the metric names. *)
let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms_per_gc" then "ms"
  else if ends "_us_per_gc" then "us"
  else if ends "ns_per_object" then "ns"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_mw" then "Mw"
  else if ends "ratio" || ends "overhead" || ends "coverage" then "ratio"
  else "count"

let host_heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let sum_counts outcomes =
  List.fold_left
    (fun acc (_, o) ->
      match (o, acc) with
      | Error _, _ -> acc
      | Ok (r : Cells.result), [] -> r.Cells.counts
      | Ok r, _ ->
          List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc r.Cells.counts)
    [] outcomes

let per_layer ~untraced_wall_s p =
  let probe =
    match p.probe with Some probe -> probe | None -> invalid_arg "per_layer"
  in
  let counts = sum_counts p.outcomes in
  let count k = Option.value ~default:0.0 (List.assoc_opt k counts) in
  let self l = Probe.self_s probe l in
  let calls l = float_of_int (Probe.calls probe l) in
  let per a b = if Float.equal b 0.0 then 0.0 else a /. b in
  let covered = List.fold_left (fun acc l -> acc +. self l) 0.0 Probe.layers in
  let layer l = (Probe.metric l, self l) in
  [
    layer Probe.Setup;
    layer Probe.Driver;
    ( "workloads.ns_per_object",
      per (self Probe.Driver *. 1e9) (count "minijvm.objects") );
    layer Probe.Minor;
    layer Probe.Major;
    ("psgc.minor_n", calls Probe.Minor);
    ("psgc.major_n", calls Probe.Major);
    ("psgc.minor_us_per_gc", per (self Probe.Minor *. 1e6) (calls Probe.Minor));
    ("psgc.major_ms_per_gc", per (self Probe.Major *. 1e3) (calls Probe.Major));
    ("psgc.host_alloc_mw", Probe.host_alloc_words probe /. 1e6);
    layer Probe.Select;
    ("policy.select_n", calls Probe.Select);
    layer Probe.Observe;
    ("policy.observe_n", calls Probe.Observe);
  ]
  @ counts
  @ [
      ( "page_cache.hit_ratio",
        per (count "page_cache.hits")
          (count "page_cache.hits" +. count "page_cache.misses") );
      layer Probe.Verify;
      layer Probe.Hooks;
      ("ocaml_gc.minor_mw", p.gc_minor_mw);
      ("ocaml_gc.promoted_mw", p.gc_promoted_mw);
      ("ocaml_gc.major_n", float_of_int p.gc_major_n);
      ("trace_overhead", (p.wall_s /. untraced_wall_s) -. 1.0);
      ("trace_coverage", covered /. p.wall_s);
    ]

(* Medians over the passes, per metric, in the first pass's order. *)
let medians = function
  | [] -> []
  | first :: _ as rows ->
      List.map
        (fun (k, _) ->
          (k, Summary.of_list (List.map (fun row -> List.assoc k row) rows)))
        first

let result_json ~check metrics =
  Json.Obj
    [
      ("correct", Json.Bool (check.failed = 0));
      ("attempted", Json.Num (float_of_int check.attempted));
      ("failed", Json.Num (float_of_int check.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) ->
               ( k,
                 Json.Obj
                   [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ] ))
             metrics) );
    ]

let print_summaries rows =
  Printf.printf "%-28s %14s %14s %14s %4s  %s\n" "metric" "median" "q1" "q3"
    "n" "unit";
  List.iter
    (fun (k, (s : Summary.t)) ->
      Printf.printf "%-28s %14.6g %14.6g %14.6g %4d  %s\n" k s.Summary.median
        s.Summary.q1 s.Summary.q3 s.Summary.n (unit_of k))
    rows

let print_check (check, digests) =
  print_endline "cell digests:";
  List.iter print_endline digests;
  List.iter (fun n -> Printf.printf "FAILED %s\n" n) check.notes;
  Printf.printf "failed_frac %d/%d\n" check.failed check.attempted

let print_passes passes =
  List.iteri
    (fun i p ->
      Printf.printf "pass %2d %-8s wall %9.4f s  cpu %9.4f s\n" i
        (if i = 0 then "warm-up" else if p.traced then "traced" else "timed")
        p.wall_s p.cpu_s)
    passes

let write_trace ~workload passes =
  let dir = "perf/traces" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (workload ^ ".json") in
  let events =
    List.concat_map
      (fun p -> Option.fold ~none:[] ~some:Probe.events p.probe)
      passes
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Th_trace.Export.to_chrome_json events));
  Printf.printf "trace: %s (%d spans)\n" path (List.length events)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)

(* Traced passes take about this much longer than untraced ones; the
   traced half of the budget runs fewer of them. *)
let trace_cost = 0.5

(* Set-up alone is a millisecond or two and noisy inside a pass, so
   setup_s comes from extra rounds after the passes, once the host heap
   peak has been read: each round compacts the heap, then builds every
   cell's stack and attaches its observers [setups_per_round] times
   without running anything. setup_s is the median over the rounds of
   the mean time per build. *)
let setup_rounds = 31

let setups_per_round = 8

let setup_times ~seed (w : Cells.workload) =
  List.init setup_rounds (fun _ ->
      Gc.compact ();
      let t0 = Wall.now_s () in
      for _ = 1 to setups_per_round do
        List.iter (fun cell -> ignore (Cells.setup_s ~seed cell)) w.Cells.cells
      done;
      Wall.elapsed_s ~since:t0 /. float_of_int setups_per_round)

let bench ~workload ~seed ~seconds ~trace =
  let w =
    match Cells.find workload with
    | Some w -> w
    | None ->
        die "unknown workload %S; one of: %s" workload
          (String.concat ", "
             (List.map (fun w -> w.Cells.workload) Cells.workloads))
  in
  let expected =
    match Expected.load () with Ok e -> e | Error msg -> die "%s" msg
  in
  Printf.printf "# perf workload=%s seed=%s seconds=%g trace=%d\n" workload
    (match seed with Some s -> Int64.to_string s | None -> "default")
    seconds
    (if trace then 1 else 0);
  let origin = Probe.now () in
  let lane = ref 0 in
  let pass ~traced () =
    incr lane;
    run_pass ~seed ~traced ~lane:!lane ~origin w.Cells.cells
  in
  let warm = pass ~traced:false () in
  let budget_s = if trace then seconds /. 2.0 else seconds in
  let timed =
    List.init (pass_count w ~budget_s ~min:3) (fun _ -> pass ~traced:false ())
  in
  let traced =
    if trace then
      List.init
        (pass_count w ~budget_s:(budget_s /. (1.0 +. trace_cost)) ~min:1)
        (fun _ -> pass ~traced:true ())
    else []
  in
  let passes = (warm :: timed) @ traced in
  print_passes passes;
  let check, digests =
    check_passes ~workload ~expected:(Some expected)
      ~default_seed:(Option.is_none seed) passes
  in
  print_check (check, digests);
  let wall = Summary.of_list (List.map (fun p -> p.wall_s) timed) in
  let metrics =
    if trace then begin
      let rows =
        medians
          (List.map (per_layer ~untraced_wall_s:wall.Summary.median) traced)
      in
      print_summaries rows;
      write_trace ~workload traced;
      List.map (fun (k, s) -> (k, s.Summary.median)) rows
    end
    else begin
      let heap_mb = host_heap_peak_mb () in
      let rows =
        [
          ("wall_s", wall);
          ("setup_s", Summary.of_list (setup_times ~seed w));
          ("host_heap_peak_mb", Summary.of_list [ heap_mb ]);
        ]
      in
      print_summaries rows;
      List.map (fun (k, s) -> (k, s.Summary.median)) rows
    end
  in
  print_endline (Json.to_string (result_json ~check metrics))

(* Every workload in a fresh process of this executable, one after
   another, then one table of every end-to-end metric with its unit.
   Exits 1 when any run fails its correctness gate. *)
let all ~seed ~seconds =
  let run (w : Cells.workload) =
    let args =
      [ Sys.executable_name; "--workload"; w.Cells.workload ]
      @ [ "--seconds"; Printf.sprintf "%g" seconds ]
      @ Option.fold ~none:[]
          ~some:(fun s -> [ "--seed"; Int64.to_string s ])
          seed
    in
    let ic =
      Unix.open_process_args_in Sys.executable_name (Array.of_list args)
    in
    let out = In_channel.input_all ic in
    print_string out;
    match (Unix.close_process_in ic, Result_line.of_output out) with
    | Unix.WEXITED 0, Ok r -> Ok r
    | Unix.WEXITED 0, Error msg -> Error (w.Cells.workload ^ ": " ^ msg)
    | (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _), _ ->
        Error (w.Cells.workload ^ ": run did not finish")
  in
  let results = List.map run Cells.workloads in
  Printf.printf "\n%-11s %-18s %14s  %-5s %s\n" "workload" "metric" "value"
    "unit" "failed";
  let oks =
    List.map
      (function
        | Error msg ->
            Printf.printf "FAILED %s\n" msg;
            false
        | Ok (r : Result_line.t) ->
            List.iter
              (fun (k, (v, u)) ->
                Printf.printf "%-11s %-18s %14.6g  %-5s %d/%d\n"
                  r.Result_line.workload k v u r.Result_line.failed
                  r.Result_line.attempted)
              r.Result_line.metrics;
            r.Result_line.correct)
      results
  in
  if not (List.for_all Fun.id oks) then exit 1

(* One pass of every workload at the default seeds. *)
let bless () =
  let entries =
    List.concat_map
      (fun (w : Cells.workload) ->
        List.map
          (fun (cell : Cells.cell) ->
            let r = Cells.run ~seed:None cell in
            if r.Cells.violations > 0 then
              die "%s %s: %d sanitizer violations; not blessing"
                w.Cells.workload cell.Cells.name r.Cells.violations;
            Printf.printf "%s %s %s\n%!" w.Cells.workload cell.Cells.name
              r.Cells.digest;
            ((w.Cells.workload, cell.Cells.name), r.Cells.digest))
          w.Cells.cells)
      Cells.workloads
  in
  Expected.save entries;
  Printf.printf "wrote %s\n" Expected.path

(* Two passes of the smoke cells, the second traced: no exception, equal
   digests, and a result line that parses back. *)
let smoke () =
  let origin = Probe.now () in
  let passes =
    [
      run_pass ~seed:None ~traced:false ~lane:1 ~origin Cells.smoke;
      run_pass ~seed:None ~traced:true ~lane:2 ~origin Cells.smoke;
    ]
  in
  print_passes passes;
  let check, digests =
    check_passes ~workload:"smoke" ~expected:None ~default_seed:true passes
  in
  print_check (check, digests);
  let untraced = List.hd passes in
  let metrics =
    ("wall_s", untraced.wall_s)
    :: per_layer ~untraced_wall_s:untraced.wall_s (List.nth passes 1)
  in
  match Json.parse (Json.to_string (result_json ~check metrics)) with
  | Error msg -> die "smoke: result line does not parse: %s" msg
  | Ok _ when check.failed > 0 -> die "smoke: %d failed cell runs" check.failed
  | Ok _ ->
      Printf.printf "smoke: ok, result line with %d metrics parses\n"
        (List.length metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref None
  and seed = ref None
  and seconds = ref 15.0
  and trace = ref false
  and mode = ref `Bench in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        (match Int64.of_string_opt v with
        | Some s -> seed := Some s
        | None -> die "--seed expects an integer, got %S\n%s" v usage);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | Some _ | None -> die "--seconds expects a positive number, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace expects 0 or 1, got %S" v);
        go rest
    | "--bless" :: rest ->
        mode := `Bless;
        go rest
    | "--smoke" :: rest ->
        mode := `Smoke;
        go rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!mode, !workload) with
  | `Bless, _ -> bless ()
  | `Smoke, _ -> smoke ()
  | `Bench, Some "all" -> all ~seed:!seed ~seconds:!seconds
  | `Bench, Some workload ->
      bench ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace
  | `Bench, None -> die "%s" usage

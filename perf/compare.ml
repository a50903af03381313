(* Compare benchmark runs of a parent commit and a change.

     dune exec perf/compare.exe -- [--benchmark BENCHMARK.json]
       --parent P1 P2 ... --change C1 C2 ...

   Each file is the standard output of one untraced benchmark run: its
   "# perf workload=..." header names the workload and its last line is
   the result object. Runs are grouped by workload and paired in the
   order given, so alternate the two sides when collecting them.

   For every end-to-end metric BENCHMARK.json lists, it prints each
   side's median, quartiles and run count, and a verdict:

   - gain: the change wins at least 9 of every 10 pairs (ties count for
     neither) and the medians differ by more than the parent's
     inter-quartile range;
   - unresolved: either side's inter-quartile range exceeds the metric's
     bound as a share of its median, unless every change run beats
     every parent run;
   - REGRESSION: the change's median is worse than the parent's by more
     than the bound;
   - within bound: none of the above.

   Exits 1 on a regression or when a change run failed its correctness
   gate, 2 on unreadable input. *)

let usage =
  "usage: compare.exe [--benchmark FILE] --parent FILE... --change FILE..."

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error msg -> die "%s" msg

let parse path text =
  match Json.parse text with Ok v -> v | Error msg -> die "%s: %s" path msg

type metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float;
}

let metrics_of_benchmark path =
  let field k v =
    match Json.member k v with
    | Some x -> x
    | None -> die "%s: missing %S" path k
  in
  let str k v =
    match field k v with Json.Str s -> s | _ -> die "%s: %S not a string" path k
  in
  match field "end_to_end" (parse path (read_file path)) with
  | Json.Arr ms ->
      List.map
        (fun m ->
          {
            name = str "name" m;
            unit_ = str "unit" m;
            lower_better = String.equal (str "better" m) "lower";
            bound =
              (match field "bound" m with
              | Json.Num b -> b
              | _ -> die "%s: bound is not a number" path);
          })
        ms
  | _ -> die "%s: end_to_end is not a list" path

let read_run path =
  match Result_line.of_output (read_file path) with
  | Ok r -> r
  | Error msg -> die "%s: %s" path msg

let rec zip a b =
  match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

let verdict m ~parent ~change =
  let p = Summary.of_list parent and c = Summary.of_list change in
  let better a b = if m.lower_better then a < b else a > b in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (pv, cv) -> better cv pv) pairs) in
  let n = List.length pairs in
  let all_better =
    List.for_all (fun cv -> List.for_all (fun pv -> better cv pv) parent) change
  in
  let worse =
    let d = (c.Summary.median -. p.Summary.median) /. p.Summary.median in
    if m.lower_better then d else -.d
  in
  let parent_iqr = p.Summary.q3 -. p.Summary.q1 in
  let v =
    if
      n > 0
      && wins * 10 >= n * 9
      && better c.Summary.median p.Summary.median
      && Float.abs (c.Summary.median -. p.Summary.median) > parent_iqr
    then "gain"
    else if
      Float.max (Summary.spread p) (Summary.spread c) > m.bound
      && not all_better
    then "unresolved"
    else if worse > m.bound then "REGRESSION"
    else "within bound"
  in
  (p, c, wins, n, worse, v)

let show (s : Summary.t) =
  Printf.sprintf "%.4g [%.4g, %.4g] %d" s.Summary.median s.Summary.q1
    s.Summary.q3 s.Summary.n

let () =
  let benchmark = ref "BENCHMARK.json" in
  let parent = ref [] and change = ref [] in
  let rec go side = function
    | [] -> ()
    | "--benchmark" :: path :: rest ->
        benchmark := path;
        go side rest
    | "--parent" :: rest -> go (Some parent) rest
    | "--change" :: rest -> go (Some change) rest
    | path :: rest -> (
        match side with
        | Some files ->
            files := path :: !files;
            go side rest
        | None -> die "unexpected argument %S\n%s" path usage)
  in
  go None (List.tl (Array.to_list Sys.argv));
  let parent = List.rev_map read_run !parent
  and change = List.rev_map read_run !change in
  let open Result_line in
  (match (parent, change) with [], _ | _, [] -> die "%s" usage | _ -> ());
  let metrics = metrics_of_benchmark !benchmark in
  let workloads =
    List.sort_uniq String.compare
      (List.map (fun r -> r.workload) (parent @ change))
  in
  let bad = ref false in
  let row = Printf.printf "%-11s %-18s %-5s %34s %34s %8s %7s  %s\n" in
  row "workload" "metric" "unit" "parent median [q1, q3] n"
    "change median [q1, q3] n" "worse" "wins" "verdict";
  List.iter
    (fun w ->
      let of_side = List.filter (fun r -> String.equal r.workload w) in
      let ps = of_side parent and cs = of_side change in
      let failed runs = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
      if List.exists (fun r -> not r.correct) cs then bad := true;
      List.iter
        (fun m ->
          let values runs =
            List.filter_map
              (fun r -> Option.map fst (List.assoc_opt m.name r.metrics))
              runs
          in
          match (values ps, values cs) with
          | [], _ | _, [] ->
              Printf.printf "%-11s %-18s (missing on one side)\n" w m.name
          | pv, cv ->
              let p, c, wins, n, worse, v = verdict m ~parent:pv ~change:cv in
              if String.equal v "REGRESSION" then bad := true;
              row w m.name m.unit_ (show p) (show c)
                (Printf.sprintf "%+.1f%%" (100.0 *. worse))
                (Printf.sprintf "%d/%d" wins n)
                v)
        metrics;
      Printf.printf "%-11s failed cell runs: parent %d, change %d\n" w
        (failed ps) (failed cs))
    workloads;
  exit (if !bad then 1 else 0)

(* Thin CLI over the Th_analysis AST analyzer (lib/analysis).

   Usage: lint.exe [options] [paths...]
     --format text|json|sarif  report format (default text)
     --rules r1,r2        run only the named rules
     --explain RULE       print a rule's documentation and exit
     --list-rules         one-line summary of every rule
     --self-test          run the analyzer over its embedded fixtures
     --interleave [full]  run the bounded-interleaving deque checker
     -o FILE              write the report to FILE instead of stdout
     paths                files or directories (default: lib bin bench)

   Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.

   The analyzer parses every .ml/.mli with the compiler's own parser and
   runs scope-aware AST rules (see `--list-rules`). The one check that
   cannot live at the AST level — a lib/ compilation unit missing its
   sealing .mli — is Th_analysis.Fscheck, against the file system. *)

let default_paths = [ "lib"; "bin"; "bench" ]

let usage () =
  prerr_endline
    "usage: lint.exe [--format text|json|sarif] [--rules r1,r2] [--explain \
     RULE]\n\
    \       [--list-rules] [--self-test] [--interleave [full]]\n\
    \       [-o FILE] [paths...]";
  exit 2

let collect path acc =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "lint: %s: no such file or directory\n" path;
    exit 2
  end;
  Th_analysis.Fscheck.collect_files path @ acc

let explain rule =
  match Th_analysis.Rule.find rule with
  | Some r ->
      print_string (Th_analysis.Rule.explain_text r);
      exit 0
  | None ->
      Printf.eprintf "lint: unknown rule %S; known rules:\n  %s\n" rule
        (String.concat "\n  " Th_analysis.Rule.names);
      exit 2

let list_rules () =
  List.iter
    (fun (r : Th_analysis.Rule.t) ->
      Printf.printf "%-20s %-17s %s\n" r.name
        (Th_analysis.Rule.family_to_string r.family)
        r.synopsis)
    Th_analysis.Rule.catalog;
  exit 0

(* Exhaustive schedule enumeration over the deque's owner/thief
   protocol, plus the sanity leg: the harness must reject a variant
   whose steal skips the CAS. *)
let interleave ~full =
  let failed = ref false in
  let show tag (r : Th_analysis.Deque_check.report) =
    Printf.printf "interleave %s %-22s %7d schedule(s), %3d outcome(s)%s\n" tag
      r.config r.schedules r.distinct
      (if r.violations = [] then "" else ", VIOLATIONS:");
    List.iter (fun v -> Printf.printf "  not linearizable: %s\n" v) r.violations
  in
  List.iter
    (fun r ->
      show "deque" r;
      if r.Th_analysis.Deque_check.violations <> [] then failed := true)
    (Th_analysis.Deque_check.check ~full ());
  let buggy = Th_analysis.Deque_check.check_buggy () in
  List.iter (show "buggy") buggy;
  if
    not
      (List.exists
         (fun (r : Th_analysis.Deque_check.report) -> r.violations <> [])
         buggy)
  then begin
    Printf.printf
      "interleave: FAILED — the harness accepted the seeded-bug deque\n";
    failed := true
  end;
  if !failed then exit 1
  else begin
    Printf.printf "interleave: deque linearizable, seeded bug rejected\n";
    exit 0
  end

let self_test () =
  match Th_analysis.Selftest.run () with
  | Ok n ->
      Printf.printf "lint --self-test: %d check(s) passed\n" n;
      exit 0
  | Error msgs ->
      List.iter (fun m -> Printf.eprintf "lint --self-test: FAILED: %s\n" m) msgs;
      exit 1

let () =
  let format = ref `Text in
  let rules = ref None in
  let output = ref None in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--format" :: v :: rest ->
        (match v with
        | "text" -> format := `Text
        | "json" -> format := `Json
        | "sarif" -> format := `Sarif
        | _ ->
            Printf.eprintf "lint: unknown format %S (text|json|sarif)\n" v;
            exit 2);
        parse_args rest
    | "--rules" :: v :: rest ->
        let names = String.split_on_char ',' v |> List.filter (fun s -> s <> "") in
        List.iter
          (fun n ->
            if Th_analysis.Rule.find n = None then begin
              Printf.eprintf "lint: unknown rule %S in --rules\n" n;
              exit 2
            end)
          names;
        rules := Some names;
        parse_args rest
    | "--explain" :: v :: rest ->
        ignore rest;
        explain v
    | [ "--explain" ] -> usage ()
    | "--list-rules" :: _ -> list_rules ()
    | "--self-test" :: _ -> self_test ()
    | "--interleave" :: "full" :: _ -> interleave ~full:true
    | "--interleave" :: _ -> interleave ~full:false
    | "-o" :: v :: rest | "--output" :: v :: rest ->
        output := Some v;
        parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "lint: unknown option %S\n" arg;
        usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths = match List.rev !paths with [] -> default_paths | ps -> ps in
  let files =
    List.sort String.compare (List.concat_map (fun p -> collect p []) paths)
  in
  let result = Th_analysis.Engine.analyze_files ?rules:!rules files in
  let fs_findings =
    match !rules with
    | Some names
      when not (List.exists (String.equal Th_analysis.Rule.missing_mli.name) names)
      ->
        []
    | _ -> Th_analysis.Fscheck.missing_mli files
  in
  let findings =
    List.sort Th_analysis.Finding.compare
      (fs_findings @ result.Th_analysis.Engine.findings)
  in
  let waived = result.Th_analysis.Engine.waived in
  let report =
    match !format with
    | `Text -> Th_analysis.Report.to_text ~waived findings
    | `Json -> Th_analysis.Report.to_json ~waived findings
    | `Sarif -> Th_analysis.Report.to_sarif ~waived findings
  in
  (match !output with
  | None -> print_string report
  | Some file ->
      let oc = open_out file in
      output_string oc report;
      close_out oc;
      Printf.printf "lint: report written to %s (%d finding(s), %d waived, %d \
                     file(s))\n"
        file (List.length findings) (List.length waived) (List.length files));
  exit (if findings = [] then 0 else 1)

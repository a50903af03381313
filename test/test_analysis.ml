(* Tests for the Th_analysis AST analyzer (lib/analysis).

   The per-rule positive/negative snippets live only in
   Th_analysis.Selftest; tests that need one analyze it under its
   Selftest.fixture_basename. fixtures/analysis/ holds the hand-written
   fixtures (waivers, the block-manager regression, Policy.make
   captures) that have no embedded counterpart. *)

module Finding = Th_analysis.Finding
module Engine = Th_analysis.Engine
module Source = Th_analysis.Source
module Report = Th_analysis.Report
module Rule = Th_analysis.Rule
module Selftest = Th_analysis.Selftest
module Syntax = Th_analysis.Syntax

let fixture_dir = Filename.concat "fixtures" "analysis"

let parse_fixture file =
  match Source.parse_file (Filename.concat fixture_dir file) with
  | Ok s -> s
  | Error m -> Alcotest.failf "fixture %s does not parse: %s" file m

let analyze_fixture file = Engine.analyze [ parse_fixture file ]

(* A rule's embedded positive Selftest snippet, parsed under its
   fixture name. *)
let parse_positive rule =
  let case =
    List.find (fun (c : Selftest.case) -> String.equal c.rule rule) Selftest.cases
  in
  let file = Selftest.fixture_basename ~polarity:`Pos rule in
  match Source.parse_string ~file case.positive with
  | Ok s -> s
  | Error m -> Alcotest.failf "snippet %s does not parse: %s" file m

let has_rule rule fs = List.exists (fun f -> String.equal f.Finding.rule rule) fs

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Every rule in the registry has exactly one selftest case, in
   registry order, so Selftest.run covers the whole rule surface. *)
let test_registry_covered () =
  Alcotest.(check (list string))
    "Selftest.cases follows Rule.all"
    (List.map (fun (r : Rule.t) -> r.name) Rule.all)
    (List.map (fun (c : Selftest.case) -> c.rule) Selftest.cases)

(* ------------------------------------------------------------------ *)
(* The sink table drives every rule that looks at worker-domain        *)
(* closures: for each entry, the domain-safety rules and cell-boundary *)
(* fire, and the raises inference defers the closure instead of        *)
(* charging its raise to the enclosing definition. The same snippets   *)
(* with the callee renamed to List.iter trigger none of that.          *)

let test_sink_table_drives_rules () =
  let analyze callee =
    let src =
      Printf.sprintf
        "exception Io_error of string
         let hits = ref 0
         let mutate () = %s (fun () -> hits := !hits + 1)
         let capture () =
        \  let acc = ref 0 in
        \  %s (fun () -> acc := !acc + 1)
         let leak () = %s (fun () -> raise (Io_error \"disk\"))
"
        callee callee callee
    in
    match Source.parse_string ~file:"sink_probe.ml" src with
    | Ok s -> Engine.analyze [ s ]
    | Error m -> Alcotest.failf "probe for %s does not parse: %s" callee m
  in
  let fires r rule = has_rule rule r.Engine.findings in
  List.iter
    (fun (m, f) ->
      let callee = Printf.sprintf "Th_exec.%s.%s" m f in
      let r = analyze callee in
      List.iter
        (fun rule ->
          if not (fires r rule) then
            Alcotest.failf "%s: no %s finding" callee rule)
        [ "pmap-mutable-global"; "escape-capture"; "cell-boundary" ];
      if fires r "fault-barrier" then
        Alcotest.failf "%s: the raises inference did not defer the closure"
          callee)
    Syntax.worker_sinks;
  let r = analyze "List.iter" in
  List.iter
    (fun rule ->
      if fires r rule then Alcotest.failf "List.iter: unexpected %s finding" rule)
    [ "pmap-mutable-global"; "escape-capture"; "cell-boundary" ];
  if not (fires r "fault-barrier") then
    Alcotest.fail "List.iter: the closure's raise must reach fault-barrier"

(* ------------------------------------------------------------------ *)
(* CLI: every rule --list-rules prints is accepted by --explain        *)

(* The analyzer binary is a declared dune dependency; `dune runtest`
   runs tests from _build/default/test, `dune exec` from the root. *)
let lint_exe =
  match
    List.find_opt Sys.file_exists
      [ "../bin/lint.exe"; "_build/default/bin/lint.exe" ]
  with
  | Some p -> p
  | None -> "../bin/lint.exe"

let test_listed_rules_explain () =
  let ic = Unix.open_process_in (Filename.quote lint_exe ^ " --list-rules") in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let listed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | name :: _ when name <> "" -> Some name
        | _ -> None)
      (lines [])
  in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "lint.exe --list-rules failed");
  Alcotest.(check (list string)) "--list-rules prints the catalog" Rule.names
    listed;
  List.iter
    (fun name ->
      let rc =
        Sys.command
          (Printf.sprintf "%s --explain %s > /dev/null" (Filename.quote lint_exe)
             (Filename.quote name))
      in
      if rc <> 0 then Alcotest.failf "--explain %s exited %d" name rc)
    listed

(* ------------------------------------------------------------------ *)
(* Acceptance: the domain-safety rule flags a global mutated from a    *)
(* scheduler cell, and names the offending global                      *)

let test_pmap_acceptance () =
  let r = Engine.analyze [ parse_positive "pmap-mutable-global" ] in
  match
    List.filter
      (fun f -> String.equal f.Finding.rule "pmap-mutable-global")
      r.Engine.findings
  with
  | [] -> Alcotest.fail "no pmap-mutable-global finding on the mutation fixture"
  | fs ->
      (* The closure passed to Cell.make both calls [bump] (transitive
         mutation) and assigns [total] directly; the finding must point
         at the global by name so the report is actionable. *)
      if
        not
          (List.exists (fun f -> contains_sub f.Finding.message "total") fs)
      then
        Alcotest.failf "pmap finding does not name the global: %s"
          (String.concat "; " (List.map (fun f -> f.Finding.message) fs))

(* ------------------------------------------------------------------ *)
(* Cross-library escape propagation: a bench closure that reaches a    *)
(* mutable global in lib/metrics through TWO hops and a library        *)
(* boundary is still flagged. Regression for the old analyzer, which   *)
(* resolved calls only inside one library and was blind to this.       *)

let parse_ok ~file src =
  match Source.parse_string ~file src with
  | Ok s -> s
  | Error m -> Alcotest.failf "%s does not parse: %s" file m

let test_cross_library_two_hop () =
  (* lib/metrics/recorder.ml — the mutation lives two calls deep. *)
  let metrics =
    parse_ok ~file:"lib/metrics/recorder.ml"
      "let counts : (string, int) Hashtbl.t = Hashtbl.create 16\n\
       let bump k =\n\
      \  let n = Option.value ~default:0 (Hashtbl.find_opt counts k) in\n\
      \  Hashtbl.replace counts k (n + 1)\n\
       let note k = bump k\n"
  in
  (* bench/driver.ml — a local module with the SAME name as the metrics
     one, but pure: resolution must pick Th_metrics.Recorder for the
     wrapped path and the local Recorder for the bare one. *)
  let bench =
    parse_ok ~file:"bench/driver.ml"
      "module Recorder = struct\n\
      \  let note k = String.length k\n\
       end\n\
       let tainted x = Th_exec.Cell.make (fun () -> Th_metrics.Recorder.note x)\n\
       let clean x = Th_exec.Cell.make (fun () -> Recorder.note x)\n"
  in
  let r = Engine.analyze [ metrics; bench ] in
  let pmap =
    List.filter
      (fun f -> String.equal f.Finding.rule "pmap-mutable-global")
      r.Engine.findings
  in
  (match pmap with
  | [] ->
      Alcotest.fail
        "two-hop bench -> lib/metrics mutation not flagged (cross-library \
         propagation regressed)"
  | fs ->
      if not (List.for_all (fun f -> f.Finding.file = "bench/driver.ml") fs)
      then Alcotest.fail "finding not attributed to the capturing bench file";
      if not (List.exists (fun f -> contains_sub f.Finding.message "counts") fs)
      then
        Alcotest.failf "finding does not name the mutated global: %s"
          (String.concat "; " (List.map (fun f -> f.Finding.message) fs)));
  (* Exactly one closure is tainted: the pure local Recorder.note must
     not pick up the th_metrics effect summary through the name clash. *)
  Alcotest.(check int) "only the Th_metrics call site is flagged" 1
    (List.length pmap)

(* ------------------------------------------------------------------ *)
(* Waivers divert findings, never drop them                            *)

let test_waiver_comment_fixture () =
  let r = analyze_fixture "waiver_comment.ml" in
  Alcotest.(check int)
    "one unwaived hashtbl-order finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "hashtbl-order")
          r.Engine.findings));
  Alcotest.(check int)
    "one waived hashtbl-order finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "hashtbl-order")
          r.Engine.waived))

let test_waiver_attribute_fixture () =
  let r = analyze_fixture "waiver_attribute.ml" in
  Alcotest.(check int)
    "one unwaived obj-magic finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "obj-magic")
          r.Engine.findings));
  Alcotest.(check int)
    "one waived obj-magic finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "obj-magic")
          r.Engine.waived))

(* qcheck: for EVERY rule's positive snippet and both attribute
   channels -- a file-level [@@@th.allow], or a [@@th.allow] that a
   mapper adds to every value binding -- the waiver moves all of that
   rule's findings to the waived list: none reach the reporter, none
   are lost. Every positive snippet reports its findings inside some
   value binding, so the binding channel needs no exceptions. *)
let allow_every_binding rule =
  let open Ast_mapper in
  let attr =
    Ast_helper.Attr.mk (Location.mknoloc "th.allow")
      (Parsetree.PStr
         [
           Ast_helper.Str.eval
             (Ast_helper.Exp.constant (Ast_helper.Const.string rule));
         ])
  in
  let value_binding m vb =
    default_mapper.value_binding m
      { vb with Parsetree.pvb_attributes = attr :: vb.Parsetree.pvb_attributes }
  in
  let m = { default_mapper with value_binding } in
  m.structure m

let prop_waived_never_reported =
  QCheck.Test.make ~count:500
    ~name:
      "file-level waiver diverts every finding, and so does a binding waiver"
    (QCheck.make
       QCheck.Gen.(
         pair
           (int_range 0 (List.length Selftest.cases - 1))
           (oneofl [ `File; `Binding ])))
    (fun (i, channel) ->
      let c = List.nth Selftest.cases i in
      let src =
        match channel with
        | `File -> Printf.sprintf "[@@@th.allow %S]\n%s" c.rule c.positive
        | `Binding -> c.positive
      in
      match Source.parse_string ~file:"waived_probe.ml" src with
      | Error m -> QCheck.Test.fail_reportf "probe does not parse: %s" m
      | Ok s ->
          let s =
            match (channel, s.Source.ast) with
            | `Binding, Source.Structure str ->
                let str = allow_every_binding c.rule str in
                { s with Source.ast = Source.Structure str }
            | _ -> s
          in
          let r = Engine.analyze [ s ] in
          (not (has_rule c.rule r.Engine.findings))
          && has_rule c.rule r.Engine.waived)

(* qcheck: the escape-capture bless token diverts, never drops — a
   [domain_shared] allow WITH a justification moves the finding to
   waived; a bare token (no justification) waives nothing. *)
let prop_domain_shared_diverts =
  let justification =
    QCheck.Gen.(
      string_size ~gen:(char_range 'a' 'z') (int_range 1 12) >>= fun w1 ->
      string_size ~gen:(char_range 'a' 'z') (int_range 1 12) >>= fun w2 ->
      return (w1 ^ " " ^ w2))
  in
  QCheck.Test.make ~count:50
    ~name:"domain_shared bless diverts findings, bare token does not"
    (QCheck.make QCheck.Gen.(pair justification bool))
    (fun (why, justified) ->
      let case =
        List.find
          (fun (c : Selftest.case) -> String.equal c.rule "escape-capture")
          Selftest.cases
      in
      let payload = if justified then "domain_shared " ^ why else "domain_shared" in
      let src = Printf.sprintf "[@@@th.allow %S]\n%s" payload case.positive in
      match Source.parse_string ~file:"bench/bless_probe.ml" src with
      | Error m -> QCheck.Test.fail_reportf "probe does not parse: %s" m
      | Ok s ->
          let r = Engine.analyze [ s ] in
          let reported = has_rule "escape-capture" r.Engine.findings in
          let waived = has_rule "escape-capture" r.Engine.waived in
          if justified then (not reported) && waived
          else reported && not waived)

(* ------------------------------------------------------------------ *)
(* Report bytes                                                        *)

(* The writers' exact output, on findings whose file and message pass
   through every branch of the JSON string escaper: quote, backslash,
   newline, carriage return, tab, another control byte (as \u00XX) and
   a byte at or above 0x80 (copied through). *)
let escapes = "q\"b\\n\nr\rt\tc\x01u\xc3\xa9"

let escaped = "q\\\"b\\\\n\\nr\\rt\\tc\\u0001u\xc3\xa9"

let report_finding rule line severity =
  {
    Finding.file = "lib/" ^ escapes ^ ".ml";
    line;
    col = 4;
    rule;
    severity;
    message = "probe " ^ escapes;
  }

let test_json_bytes () =
  Alcotest.(check string)
    "to_json bytes"
    ("{\"version\":1,\n\"findings\":[{\"file\":\"lib/" ^ escaped
   ^ ".ml\",\"line\":3,\"col\":4,\"rule\":\"escape-capture\",\"severity\":\"error\",\"message\":\"probe "
   ^ escaped
   ^ "\"}],\n\"waived\":[{\"file\":\"lib/" ^ escaped
   ^ ".ml\",\"line\":9,\"col\":4,\"rule\":\"atomic-plain-write\",\"severity\":\"warning\",\"message\":\"probe "
   ^ escaped ^ "\"}]}\n")
    (Report.to_json
       ~waived:[ report_finding "atomic-plain-write" 9 Finding.Warning ]
       [ report_finding "escape-capture" 3 Finding.Error ])

let test_sarif_shape () =
  let doc =
    Report.to_sarif
      ~waived:[ report_finding "atomic-plain-write" 9 Finding.Warning ]
      [ report_finding "escape-capture" 3 Finding.Error ]
  in
  let result ~rule ~level ~line ~suppressed =
    "{\"ruleId\":\"" ^ rule ^ "\",\"level\":\"" ^ level
    ^ "\",\"message\":{\"text\":\"probe " ^ escaped
    ^ "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"lib/"
    ^ escaped ^ ".ml\"},\"region\":{\"startLine\":" ^ line
    (* 0-based finding col 4 becomes 1-based SARIF startColumn 5 *)
    ^ ",\"startColumn\":5}}}]"
    (* the waived finding is suppressed, not dropped *)
    ^ (if suppressed then ",\"suppressions\":[{\"kind\":\"inSource\"}]" else "")
    ^ "}"
  in
  let header =
    "{\"version\":\"2.1.0\",\n\
     \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\n\
     \"runs\":[{\"tool\":{\"driver\":{\"name\":\"th-lint\",\"rules\":["
  in
  let results_at = "]}},\n\"results\":[" in
  let hl = String.length header and dl = String.length doc in
  Alcotest.(check string) "SARIF header bytes" header (String.sub doc 0 hl);
  let rec find i =
    if i + String.length results_at > dl then
      Alcotest.fail "SARIF output lacks a results array"
    else if String.sub doc i (String.length results_at) = results_at then i
    else find (i + 1)
  in
  let r = find hl + String.length results_at in
  Alcotest.(check string) "SARIF results bytes"
    (result ~rule:"escape-capture" ~level:"error" ~line:"3" ~suppressed:false
    ^ ",\n"
    ^ result ~rule:"atomic-plain-write" ~level:"warning" ~line:"9"
        ~suppressed:true
    ^ "]}]}\n")
    (String.sub doc r (dl - r));
  (* rule metadata: every registered rule is listed in the driver *)
  List.iter
    (fun (rule : Rule.t) ->
      let needle = Printf.sprintf "{\"id\":\"%s\"" rule.name in
      if not (contains_sub doc needle) then
        Alcotest.failf "SARIF output lacks %S" needle)
    Rule.all

(* ------------------------------------------------------------------ *)
(* CLI contract pieces that live in the library                        *)

let test_explain_unknown_rule () =
  Alcotest.(check bool) "unknown rule not found" true (Rule.find "no-such" = None);
  Alcotest.(check bool)
    "every registered rule resolvable" true
    (List.for_all (fun (r : Rule.t) -> Rule.find r.name <> None) Rule.all)

(* ------------------------------------------------------------------ *)
(* Policy.make is a domain-crossing sink: placement-policy callbacks   *)
(* run on whichever worker domain owns the runtime                     *)

let test_policy_capture_flagged () =
  let r = analyze_fixture "policy_capture_pos.ml" in
  match
    List.filter
      (fun f -> String.equal f.Finding.rule "escape-capture")
      r.Engine.findings
  with
  | [] ->
      Alcotest.fail
        "no escape-capture finding on the Policy.make capture fixture"
  | f :: _ ->
      Alcotest.(check bool) "finding names the captured local" true
        (contains_sub f.Finding.message "\"moved\"");
      Alcotest.(check bool) "finding names the Policy.make sink" true
        (contains_sub f.Finding.message "Policy.make")

let test_policy_capture_atomic_clean () =
  let r = analyze_fixture "policy_capture_neg.ml" in
  if
    has_rule "escape-capture" r.Engine.findings
    || has_rule "escape-capture" r.Engine.waived
  then Alcotest.fail "Atomic-backed policy state must not be flagged"

(* ------------------------------------------------------------------ *)
(* Exception flow: seeded regression — deleting the Io_retry guard in  *)
(* the block-manager fixture must trip fault-barrier by name           *)

let test_block_manager_regression () =
  let guarded = analyze_fixture "block_manager_guarded.ml" in
  if
    has_rule "fault-barrier" guarded.Engine.findings
    || has_rule "fault-barrier" guarded.Engine.waived
  then Alcotest.fail "guarded block-manager fixture must be barrier-clean";
  let unguarded = analyze_fixture "block_manager_unguarded.ml" in
  match
    List.filter
      (fun f -> String.equal f.Finding.rule "fault-barrier")
      unguarded.Engine.findings
  with
  | [] -> Alcotest.fail "deleting the Io_retry guard must trip fault-barrier"
  | f :: _ ->
      Alcotest.(check bool) "finding names Io_error" true
        (contains_sub f.Finding.message "Io_error")

(* qcheck: a [@th.raises] declaration fixes the summary callers see —
   whatever the body raises, inference never widens it. The twin
   definition without the annotation checks inference still sees the
   body's raises exactly. *)
module Callgraph = Th_analysis.Callgraph
module Raises = Th_analysis.Raises

let ctor_universe = [ "Alpha"; "Beta"; "Gamma"; "Delta" ]

let prop_declared_never_widened =
  QCheck.Test.make ~count:100
    ~name:"[@th.raises] summaries are never widened by inference"
    (QCheck.make QCheck.Gen.(pair (int_bound 15) (int_bound 15)))
    (fun (dbits, bbits) ->
      let subset bits =
        List.filteri (fun i _ -> bits land (1 lsl i) <> 0) ctor_universe
      in
      let declared = subset dbits and body = subset bbits in
      let raises_of = function
        | [] -> "()"
        | cs -> String.concat "; " (List.map (fun c -> "raise " ^ c) cs)
      in
      let src =
        Printf.sprintf
          "exception Alpha\n\
           exception Beta\n\
           exception Gamma\n\
           exception Delta\n\
           let f () = %s [@@th.raises %S]\n\
           let g () = %s\n"
          (raises_of body)
          (String.concat " " declared)
          (raises_of body)
      in
      match Source.parse_string ~file:"lib/core/raises_probe.ml" src with
      | Error m -> QCheck.Test.fail_reportf "probe does not parse: %s" m
      | Ok s ->
          let db = Callgraph.build [ s ] in
          let t = Raises.build db [ s ] in
          let key name =
            { Callgraph.lib = "th_core"; modname = "Raises_probe"; name }
          in
          Raises.summary t (key "f") = List.sort String.compare declared
          && Raises.summary t (key "g") = List.sort String.compare body)

(* The fixpoint visits defs in canonical key order, so two analyses of
   the same sources must serialize byte-identically. *)
let test_raises_determinism () =
  let run () =
    let sources =
      List.map parse_fixture
        [ "block_manager_guarded.ml"; "block_manager_unguarded.ml" ]
      @ List.map parse_positive [ "fault-barrier"; "cell-boundary"; "pure-render" ]
    in
    let r = Engine.analyze sources in
    Report.to_json ~waived:r.Engine.waived r.Engine.findings
  in
  Alcotest.(check string) "byte-identical JSON across two runs" (run ())
    (run ())

(* ------------------------------------------------------------------ *)
(* File-system checks over the pos/neg fixture trees                   *)

module Fscheck = Th_analysis.Fscheck

let test_missing_mli_fixtures () =
  let tree p = Filename.concat (Filename.concat "fixtures" "missing_mli") p in
  (match Fscheck.missing_mli (Fscheck.collect_files (tree "pos")) with
  | [ f ] ->
      Alcotest.(check string) "rule" "missing-mli" f.Finding.rule;
      Alcotest.(check bool) "names the unsealed unit" true
        (contains_sub f.Finding.file "widget.ml")
  | fs ->
      Alcotest.failf "expected exactly one missing-mli finding, got %d"
        (List.length fs));
  Alcotest.(check int) "sealed tree is clean" 0
    (List.length (Fscheck.missing_mli (Fscheck.collect_files (tree "neg"))))

let test_selftest_passes () =
  match Selftest.run () with
  | Ok n -> Alcotest.(check bool) "some checks ran" true (n > 0)
  | Error msgs -> Alcotest.failf "self-test failed: %s" (String.concat "; " msgs)

let suite =
  [
    Alcotest.test_case "every rule has a selftest case" `Quick
      test_registry_covered;
    Alcotest.test_case "every worker sink drives the sink rules" `Quick
      test_sink_table_drives_rules;
    Alcotest.test_case "every listed rule has an explain text" `Quick
      test_listed_rules_explain;
    Alcotest.test_case "pmap cell mutating a global is flagged by name" `Quick
      test_pmap_acceptance;
    Alcotest.test_case "two-hop cross-library mutation is flagged" `Quick
      test_cross_library_two_hop;
    Alcotest.test_case "Policy.make capture is flagged" `Quick
      test_policy_capture_flagged;
    Alcotest.test_case "Policy.make with Atomic state is clean" `Quick
      test_policy_capture_atomic_clean;
    Alcotest.test_case "comment waiver diverts, not drops" `Quick
      test_waiver_comment_fixture;
    Alcotest.test_case "attribute waiver diverts, not drops" `Quick
      test_waiver_attribute_fixture;
    QCheck_alcotest.to_alcotest prop_waived_never_reported;
    QCheck_alcotest.to_alcotest prop_domain_shared_diverts;
    Alcotest.test_case "JSON report bytes" `Quick test_json_bytes;
    Alcotest.test_case "SARIF document shape" `Quick test_sarif_shape;
    Alcotest.test_case "seeded regression: unguarded block manager rejected"
      `Quick test_block_manager_regression;
    QCheck_alcotest.to_alcotest prop_declared_never_widened;
    Alcotest.test_case "raises fixpoint is deterministic" `Quick
      test_raises_determinism;
    Alcotest.test_case "missing-mli pos/neg fixture trees" `Quick
      test_missing_mli_fixtures;
    Alcotest.test_case "rule registry lookups" `Quick test_explain_unknown_rule;
    Alcotest.test_case "embedded self-test passes" `Quick test_selftest_passes;
  ]

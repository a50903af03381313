(* Tests for the Th_analysis AST analyzer (lib/analysis).

   The per-rule positive/negative snippets live only in
   Th_analysis.Selftest; tests that need one analyze it under its
   Selftest.fixture_basename. fixtures/analysis/ holds the hand-written
   waiver fixtures that have no embedded counterpart. *)

module Finding = Th_analysis.Finding
module Engine = Th_analysis.Engine
module Source = Th_analysis.Source
module Report = Th_analysis.Report
module Rule = Th_analysis.Rule
module Selftest = Th_analysis.Selftest

let fixture_dir = Filename.concat "fixtures" "analysis"

let parse_fixture file =
  match Source.parse_file (Filename.concat fixture_dir file) with
  | Ok s -> s
  | Error m -> Alcotest.failf "fixture %s does not parse: %s" file m

let analyze_fixture file = Engine.analyze [ parse_fixture file ]

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
    "one unwaived poly-compare finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "poly-compare")
          r.Engine.findings));
  Alcotest.(check int)
    "one waived poly-compare finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "poly-compare")
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
   ^ ".ml\",\"line\":3,\"col\":4,\"rule\":\"hashtbl-order\",\"severity\":\"error\",\"message\":\"probe "
   ^ escaped
   ^ "\"}],\n\"waived\":[{\"file\":\"lib/" ^ escaped
   ^ ".ml\",\"line\":9,\"col\":4,\"rule\":\"float-equality\",\"severity\":\"warning\",\"message\":\"probe "
   ^ escaped ^ "\"}]}\n")
    (Report.to_json
       ~waived:[ report_finding "float-equality" 9 Finding.Warning ]
       [ report_finding "hashtbl-order" 3 Finding.Error ])

let test_sarif_shape () =
  let doc =
    Report.to_sarif
      ~waived:[ report_finding "float-equality" 9 Finding.Warning ]
      [ report_finding "hashtbl-order" 3 Finding.Error ]
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
    (result ~rule:"hashtbl-order" ~level:"error" ~line:"3" ~suppressed:false
    ^ ",\n"
    ^ result ~rule:"float-equality" ~level:"warning" ~line:"9"
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
    Alcotest.test_case "every listed rule has an explain text" `Quick
      test_listed_rules_explain;
    Alcotest.test_case "comment waiver diverts, not drops" `Quick
      test_waiver_comment_fixture;
    Alcotest.test_case "attribute waiver diverts, not drops" `Quick
      test_waiver_attribute_fixture;
    QCheck_alcotest.to_alcotest prop_waived_never_reported;
    Alcotest.test_case "JSON report bytes" `Quick test_json_bytes;
    Alcotest.test_case "SARIF document shape" `Quick test_sarif_shape;
    Alcotest.test_case "missing-mli pos/neg fixture trees" `Quick
      test_missing_mli_fixtures;
    Alcotest.test_case "rule registry lookups" `Quick test_explain_unknown_rule;
    Alcotest.test_case "embedded self-test passes" `Quick test_selftest_passes;
  ]

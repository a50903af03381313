(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let to_text ?waived findings =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_string f);
      Buffer.add_char b '\n')
    findings;
  (match waived with
  | None | Some [] -> ()
  | Some ws ->
      List.iter
        (fun f ->
          Buffer.add_string b "(waived) ";
          Buffer.add_string b (Finding.to_string f);
          Buffer.add_char b '\n')
        ws);
  let n = List.length findings in
  Buffer.add_string b
    (if n = 0 then
       Printf.sprintf "analysis: clean%s\n"
         (match waived with
         | Some ws when ws <> [] ->
             Printf.sprintf " (%d waived)" (List.length ws)
         | _ -> "")
     else Printf.sprintf "analysis: %d finding(s)\n" n);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON writing                                                        *)

let escape_json b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_finding b (f : Finding.t) =
  Buffer.add_string b "{\"file\":\"";
  escape_json b f.file;
  Buffer.add_string b "\",\"line\":";
  Buffer.add_string b (string_of_int f.line);
  Buffer.add_string b ",\"col\":";
  Buffer.add_string b (string_of_int f.col);
  Buffer.add_string b ",\"rule\":\"";
  escape_json b f.rule;
  Buffer.add_string b "\",\"severity\":\"";
  Buffer.add_string b (Finding.severity_to_string f.severity);
  Buffer.add_string b "\",\"message\":\"";
  escape_json b f.message;
  Buffer.add_string b "\"}"

let add_list b fs =
  Buffer.add_char b '[';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",\n ";
      add_finding b f)
    fs;
  Buffer.add_char b ']'

let to_json ?(waived = []) findings =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":1,\n\"findings\":";
  add_list b findings;
  Buffer.add_string b ",\n\"waived\":";
  add_list b waived;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 (minimal profile)                                       *)

(* One run, one driver, every registry rule in the driver's rule
   metadata; waived findings are emitted as results carrying an
   inSource suppression, which is how SARIF viewers (and the GitHub
   code-scanning UI) display "found but deliberately accepted". *)
let add_sarif_result b ~suppressed (f : Finding.t) =
  Buffer.add_string b "{\"ruleId\":\"";
  escape_json b f.rule;
  Buffer.add_string b "\",\"level\":\"";
  Buffer.add_string b (Finding.severity_to_string f.severity);
  Buffer.add_string b "\",\"message\":{\"text\":\"";
  escape_json b f.message;
  Buffer.add_string b
    "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"";
  escape_json b f.file;
  Buffer.add_string b "\"},\"region\":{\"startLine\":";
  Buffer.add_string b (string_of_int f.line);
  Buffer.add_string b ",\"startColumn\":";
  (* SARIF columns are 1-based; findings carry 0-based columns. *)
  Buffer.add_string b (string_of_int (f.col + 1));
  Buffer.add_string b "}}}]";
  if suppressed then
    Buffer.add_string b ",\"suppressions\":[{\"kind\":\"inSource\"}]";
  Buffer.add_string b "}"

let to_sarif ?(waived = []) findings =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "{\"version\":\"2.1.0\",\n\
     \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\n\
     \"runs\":[{\"tool\":{\"driver\":{\"name\":\"th-lint\",\"rules\":[";
  List.iteri
    (fun i (r : Rule.t) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"id\":\"";
      escape_json b r.name;
      Buffer.add_string b "\",\"shortDescription\":{\"text\":\"";
      escape_json b r.synopsis;
      Buffer.add_string b "\"}}")
    Rule.all;
  Buffer.add_string b "]}},\n\"results\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",\n";
      add_sarif_result b ~suppressed:false f)
    findings;
  List.iteri
    (fun i f ->
      if i > 0 || findings <> [] then Buffer.add_string b ",\n";
      add_sarif_result b ~suppressed:true f)
    waived;
  Buffer.add_string b "]}]}\n";
  Buffer.contents b

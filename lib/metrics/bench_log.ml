(* Wall-clock perf tracker for the benchmark harness: records per-section
   and total wall time plus the worker count, and serialises them to
   BENCH_harness.json (or the file named by TH_BENCH_JSON). The file is a
   local, untracked artifact — .gitignore lists it — written fresh by
   every run; CI reads its top-level speedup fields and uploads it as a
   build artifact.

   Schema 3: every section is stamped with the jobs count it actually
   ran at, its cell count, the summed per-cell wall time (the
   serial-equivalent cost measured inside the scheduler) and its render
   time; the top level carries a *measured* speedup-vs-serial —
   serial-equivalent seconds over actual wall seconds. *)

type section = {
  name : string;
  jobs : int;
  cells : int;
  cell_wall_s : float;  (* summed per-cell wall time: serial-equivalent *)
  render_wall_s : float;
}

type t = {
  jobs : int;
  sections : section list;
  total_wall_s : float;
}

let schema = "teraheap-bench-harness/3"

let default_path = "BENCH_harness.json"

let section_wall_s s = s.cell_wall_s +. s.render_wall_s

(* Serial-equivalent seconds of this run: what the same cells plus
   renders cost end to end, summed as if executed back to back. *)
let serial_equiv_s t =
  List.fold_left (fun acc s -> acc +. section_wall_s s) 0.0 t.sections

(* Measured speedup: serial-equivalent over actual wall. Both terms are
   monotonic-clock measurements of this very run, so scheduler idle time
   and steal overhead show up honestly. *)
let speedup_vs_serial_measured t =
  if t.total_wall_s > 0.0 then serial_equiv_s t /. t.total_wall_s else 1.0

(* ------------------------------------------------------------------ *)
(* JSON writing                                                        *)

let json_float f =
  if not (Float.is_finite f) then "0.0" else Printf.sprintf "%.6f" f

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_json t =
  let section s =
    Printf.sprintf
      "    { \"name\": %s, \"jobs\": %d, \"cells\": %d, \"cell_wall_s\": %s, \
       \"render_wall_s\": %s, \"wall_s\": %s }"
      (json_string s.name) s.jobs s.cells
      (json_float s.cell_wall_s)
      (json_float s.render_wall_s)
      (json_float (section_wall_s s))
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"schema\": %s," (json_string schema);
      Printf.sprintf "  \"jobs\": %d," t.jobs;
      Printf.sprintf "  \"total_wall_s\": %s," (json_float t.total_wall_s);
      Printf.sprintf "  \"serial_equiv_s\": %s," (json_float (serial_equiv_s t));
      Printf.sprintf "  \"speedup_vs_serial_measured\": %s,"
        (json_float (speedup_vs_serial_measured t));
      "  \"sections\": [";
      String.concat ",\n" (List.map section t.sections);
      "  ]";
      "}";
      "";
    ]

let write ?(path = default_path) t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

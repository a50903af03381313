(* Wall-clock perf tracker for the benchmark harness: records per-section
   and total wall/CPU time plus the worker count, and serialises them to
   BENCH_harness.json (or the file named by TH_BENCH_JSON). The file is a
   local, untracked artifact — .gitignore lists it — so it only compares
   runs on one machine; CI uploads it as a build artifact.

   Schema 2: every section is stamped with the jobs count it actually
   ran at, its cell count, the summed per-cell wall time (the
   serial-equivalent cost measured inside the scheduler) and its render
   time; the top level carries a *measured* speedup-vs-serial —
   serial-equivalent seconds over actual wall seconds — next to the
   older cpu/wall estimate. [write] merge-updates the existing file:
   sections are keyed by name, so `bench soak` refreshes the soak entry
   without clobbering the sections a previous full run recorded. *)

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
  total_cpu_s : float;
}

let schema = "teraheap-bench-harness/2"

let default_path = "BENCH_harness.json"

let section_wall_s s = s.cell_wall_s +. s.render_wall_s

(* Serial-equivalent seconds of this run: what the same cells plus
   renders cost end to end, summed as if executed back to back. *)
let serial_equiv_s t =
  List.fold_left (fun acc s -> acc +. section_wall_s s) 0.0 t.sections

(* Measured speedup: serial-equivalent over actual wall. Unlike the
   cpu/wall estimate below, both terms are monotonic-clock measurements
   of this very run, so scheduler idle time and steal overhead show up
   honestly. *)
let speedup_vs_serial_measured t =
  if t.total_wall_s > 0.0 then serial_equiv_s t /. t.total_wall_s else 1.0

(* [Sys.time] sums CPU time over every domain, so on a CPU-bound harness
   it approximates what a serial run would need in wall time; the ratio
   to actual wall time estimates the speedup. Kept for continuity with
   schema 1. *)
let speedup_vs_serial_est t =
  if t.total_wall_s > 0.0 then t.total_cpu_s /. t.total_wall_s else 1.0

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

let to_json_sections t ~sections =
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
      Printf.sprintf "  \"total_cpu_s\": %s," (json_float t.total_cpu_s);
      Printf.sprintf "  \"serial_equiv_s\": %s," (json_float (serial_equiv_s t));
      Printf.sprintf "  \"speedup_vs_serial_measured\": %s,"
        (json_float (speedup_vs_serial_measured t));
      Printf.sprintf "  \"speedup_vs_serial_est\": %s,"
        (json_float (speedup_vs_serial_est t));
      "  \"sections\": [";
      String.concat ",\n" (List.map section sections);
      "  ]";
      "}";
      "";
    ]

let to_json t = to_json_sections t ~sections:t.sections

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader — just enough to merge our own output back in.
   Tolerant: any parse failure yields no sections and the next write
   starts the file fresh.                                              *)

type jv =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of jv list
  | Jobj of (string * jv) list

exception Bad_json

let parse_json_res (s : string) : (jv, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance () else raise Bad_json
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else raise Bad_json
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise Bad_json;
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then raise Bad_json;
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then raise Bad_json;
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> raise Bad_json);
              pos := !pos + 4
          | _ -> raise Bad_json);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise Bad_json
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if match peek () with Some '}' -> true | _ -> false then begin
          advance ();
          Jobj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> raise Bad_json
          in
          members ();
          Jobj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if match peek () with Some ']' -> true | _ -> false then begin
          advance ();
          Jarr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> raise Bad_json
          in
          elements ();
          Jarr (List.rev !items)
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> raise Bad_json
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos = n then Ok v
      else Error (Printf.sprintf "trailing bytes at offset %d" !pos)
  | exception Bad_json ->
      (* [pos] stopped where the parse gave up, so the offset in the
         error is the first malformed construct. *)
      Error (Printf.sprintf "malformed JSON at offset %d" !pos)

let field key = function
  | Jobj fields -> List.assoc_opt key fields
  | _ -> None

let as_float = function
  | Some (Jnum f) -> Some f
  | _ -> None

let as_int v = Option.map int_of_float (as_float v)

(* Accept both schema 1 ({ name, wall_s, cpu_s }, jobs only at the top
   level) and schema 2 sections. *)
let sections_of_json j =
  let top_jobs = Option.value ~default:1 (as_int (field "jobs" j)) in
  match field "sections" j with
  | Some (Jarr items) ->
      List.filter_map
        (fun item ->
          match field "name" item with
          | Some (Jstr name) ->
              let f key ~fallback =
                match as_float (field key item) with
                | Some v -> v
                | None -> fallback
              in
              Some
                {
                  name;
                  jobs =
                    Option.value ~default:top_jobs (as_int (field "jobs" item));
                  cells = Option.value ~default:0 (as_int (field "cells" item));
                  cell_wall_s =
                    f "cell_wall_s" ~fallback:(f "wall_s" ~fallback:0.0);
                  render_wall_s = f "render_wall_s" ~fallback:0.0;
                }
          | _ -> None)
        items
  | _ -> []

(* Total entry point for external callers: [Bad_json] never crosses
   this module's boundary (fault-barrier), and a malformed document
   comes back as a positioned error instead of a silent []. *)
let parse_sections contents =
  Result.map sections_of_json (parse_json_res contents)

let read_sections path =
  match
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
    end
    else None
  with
  | None -> []
  | Some contents -> (
      match parse_sections contents with Ok sections -> sections | Error _ -> [])
  | exception Sys_error _ -> []

(* Sections from [previous] that this run did not re-record keep their
   old entry and relative order; re-run sections are updated in place
   and new ones are appended in run order. *)
let merge ~previous current =
  let kept_or_updated =
    List.map
      (fun old ->
        match List.find_opt (fun s -> s.name = old.name) current with
        | Some updated -> updated
        | None -> old)
      previous
  in
  let appended =
    List.filter (fun s -> not (List.exists (fun o -> o.name = s.name) previous))
      current
  in
  kept_or_updated @ appended

let write ?(path = default_path) t =
  let previous = read_sections path in
  let merged = merge ~previous t.sections in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json_sections t ~sections:merged))

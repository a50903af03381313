open Th_sim
module Fault = Th_sim.Fault

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n') s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string cells = String.concat "," (List.map escape cells)

let to_string ~header rows =
  String.concat "\n" (List.map row_to_string (header :: rows)) ^ "\n"

let to_channel oc ~header rows = output_string oc (to_string ~header rows)

let breakdown_header =
  [ "configuration"; "other_s"; "serde_io_s"; "minor_gc_s"; "major_gc_s"; "total_s" ]

let breakdown_row ~label b =
  match b with
  | None -> [ label; "OOM"; "OOM"; "OOM"; "OOM"; "OOM" ]
  | Some b ->
      let s ns = Printf.sprintf "%.6f" (ns /. 1e9) in
      [
        label;
        s b.Clock.other_ns;
        s b.Clock.serde_io_ns;
        s b.Clock.minor_gc_ns;
        s b.Clock.major_gc_ns;
        s (Clock.total_ns b);
      ]

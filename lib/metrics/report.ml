open Th_sim
module Fault = Th_sim.Fault

type row = { label : string; breakdown : Clock.breakdown option }

(* When TH_CSV_DIR is set, every breakdown table is also written as a CSV
   file there (the artifact-style output the paper's plotting scripts
   consume). *)
let csv_sink title rows =
  match Sys.getenv_opt "TH_CSV_DIR" with
  | None -> ()
  | Some dir ->
      let sanitized =
        String.map
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
            | _ -> '_')
          title
      in
      let path = Filename.concat dir (sanitized ^ ".csv") in
      let oc = open_out path in
      Csv.to_channel oc ~header:Csv.breakdown_header
        (List.map (fun r -> Csv.breakdown_row ~label:r.label r.breakdown) rows);
      close_out oc

let row label b = { label; breakdown = Some b }

let oom label = { label; breakdown = None }

let first_total rows =
  List.find_map
    (fun r -> Option.map Clock.total_ns r.breakdown)
    rows

let print_breakdown_table ~title rows =
  let base = match first_total rows with Some x -> x | None -> 1.0 in
  let base = if base <= 0.0 then 1.0 else base in
  csv_sink title rows;
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-28s %9s %9s %9s %9s %9s\n" "configuration" "other"
    "s/d+io" "minorGC" "majorGC" "total";
  List.iter
    (fun r ->
      match r.breakdown with
      | None -> Printf.printf "%-28s %s\n" r.label "OOM"
      | Some b ->
          let n x = x /. base in
          Printf.printf "%-28s %9.3f %9.3f %9.3f %9.3f %9.3f\n" r.label
            (n b.Clock.other_ns) (n b.Clock.serde_io_ns)
            (n b.Clock.minor_gc_ns) (n b.Clock.major_gc_ns)
            (n (Clock.total_ns b)))
    rows

let print_series ~title ~header rows =
  Printf.printf "\n== %s ==\n" title;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w r ->
            match List.nth_opt r i with
            | Some cell -> max w (String.length cell)
            | None -> w)
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Printf.printf "%-*s  " w cell)
      cells;
    print_newline ()
  in
  print_row header;
  List.iter print_row rows

let print_fault_summary ~label (fs : Fault.stats) =
  Printf.printf "  faults[%s]: %d injected (%dr/%dw err, %d spiked, %d stalls, %d enospc)\n"
    label
    (Fault.faults_injected fs)
    fs.Fault.read_errors fs.Fault.write_errors fs.Fault.spiked_ops
    fs.Fault.stalls fs.Fault.enospc_rejections;
  Printf.printf
    "    recovery: %d retries (%.3f ms backoff, %.3f ms penalty), %d exhausted, %d recomputes\n"
    fs.Fault.retries
    (fs.Fault.backoff_ns /. 1e6)
    (fs.Fault.penalty_ns /. 1e6)
    fs.Fault.exhausted_retries fs.Fault.recomputes;
  if fs.Fault.h2_degraded_events > 0 then
    Printf.printf "    h2 degraded mode: %d events, %d objects left in H1\n"
      fs.Fault.h2_degraded_events fs.Fault.h2_objects_deferred

let speedup ~baseline b =
  let tb = Clock.total_ns baseline and t = Clock.total_ns b in
  if tb <= 0.0 then 0.0 else (tb -. t) /. tb

let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)

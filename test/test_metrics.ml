(* Tests for CDF computation and report helpers. *)

open Th_sim
module Report = Th_metrics.Report
module Cdf = Th_metrics.Cdf

let test_cdf_points_sorted () =
  let pts = Cdf.points ~buckets:4 [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check int) "buckets+1 points" 5 (List.length pts);
  let values = List.map snd pts in
  Alcotest.(check (list (float 1e-9))) "monotone percentiles"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] values

let test_cdf_empty () =
  Alcotest.(check int) "empty input" 0 (List.length (Cdf.points []))

let test_cdf_fraction () =
  let s = [ 0.0; 0.0; 50.0; 100.0 ] in
  Alcotest.(check (float 1e-9)) "half at or below zero" 0.5
    (Cdf.fraction_at_or_below s 0.0);
  Alcotest.(check (float 1e-9)) "all below max" 1.0
    (Cdf.fraction_at_or_below s 100.0)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf points are monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 100.0))
    (fun samples ->
      let pts = Cdf.points samples in
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono pts)

let breakdown other serde minor major =
  let c = Clock.create () in
  Clock.advance c Clock.Other other;
  Clock.advance c Clock.Serde_io serde;
  Clock.advance c Clock.Minor_gc minor;
  Clock.advance c Clock.Major_gc major;
  Clock.breakdown c

let test_first_total_skips_oom () =
  let rows =
    [ Report.oom "dead"; Report.row "alive" (breakdown 10.0 0.0 0.0 0.0) ]
  in
  Alcotest.(check (option (float 1e-9))) "first non-OOM total" (Some 10.0)
    (Report.first_total rows)

let test_speedup () =
  let base = breakdown 100.0 0.0 0.0 0.0 in
  let fast = breakdown 60.0 0.0 0.0 0.0 in
  Alcotest.(check (float 1e-9)) "40% faster" 0.4
    (Report.speedup ~baseline:base fast)

module Csv = Th_metrics.Csv

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_rendering () =
  let out =
    Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "a,b" ] ]
  in
  Alcotest.(check string) "rendered" "x,y\n1,2\n3,\"a,b\"\n" out

let test_csv_breakdown_row () =
  let c = Clock.create () in
  Clock.advance c Clock.Other 1e9;
  let row = Csv.breakdown_row ~label:"run" (Some (Clock.breakdown c)) in
  Alcotest.(check (list string)) "row"
    [ "run"; "1.000000"; "0.000000"; "0.000000"; "0.000000"; "1.000000" ]
    row;
  Alcotest.(check (list string)) "oom row"
    [ "dead"; "OOM"; "OOM"; "OOM"; "OOM"; "OOM" ]
    (Csv.breakdown_row ~label:"dead" None)

(* ------------------------------------------------------------------ *)
(* Bench_log: write-only, one run per file.                            *)

module Bench_log = Th_metrics.Bench_log

let section name cell_wall_s =
  {
    Bench_log.name;
    jobs = 2;
    cells = 4;
    cell_wall_s;
    render_wall_s = 0.25;
  }

let log sections = { Bench_log.jobs = 2; sections; total_wall_s = 10.0 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A second write replaces the first: the file describes one run, and
   still carries the top-level fields the CI speedup gate reads. *)
let test_bench_log_write_replaces () =
  let path = Filename.temp_file "bench_log_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_log.write ~path (log [ section "fig7" 1.0; section "soak" 2.0 ]);
      let second = log [ section "fig8" 3.0 ] in
      Bench_log.write ~path second;
      let written = read_file path in
      Alcotest.(check string) "file holds the last run only"
        (Bench_log.to_json second) written;
      List.iter
        (fun key ->
          if not (contains written (Printf.sprintf "%S:" key)) then
            Alcotest.failf "BENCH_harness.json lacks %s" key)
        [ "speedup_vs_serial_measured"; "serial_equiv_s"; "total_wall_s" ])

let test_bench_log_speedups () =
  let t = log [ section "a" 20.0; section "b" 9.5 ] in
  (* serial equivalent = 20 + 9.5 + 2 * 0.25 = 30; wall = 10. *)
  Alcotest.(check (float 1e-6))
    "measured speedup = serial-equivalent / wall" 3.0
    (Bench_log.speedup_vs_serial_measured t)

let suite =
  [
    Alcotest.test_case "cdf points sorted" `Quick test_cdf_points_sorted;
    Alcotest.test_case "cdf handles empty input" `Quick test_cdf_empty;
    Alcotest.test_case "cdf fraction_at_or_below" `Quick test_cdf_fraction;
    QCheck_alcotest.to_alcotest prop_cdf_monotone;
    Alcotest.test_case "first_total skips OOM rows" `Quick
      test_first_total_skips_oom;
    Alcotest.test_case "speedup" `Quick test_speedup;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
    Alcotest.test_case "csv breakdown rows" `Quick test_csv_breakdown_row;
    Alcotest.test_case "bench log write replaces the file" `Quick
      test_bench_log_write_replaces;
    Alcotest.test_case "bench log speedup arithmetic" `Quick
      test_bench_log_speedups;
  ]

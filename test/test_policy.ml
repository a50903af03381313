(* Tests for the pluggable H2 placement policies (Th_policy) and the
   policy tournament.

   Four layers:

   - equivalence goldens: the refactored collector running the default
     [Policy.threshold] must reproduce the pre-refactor bench stdout
     byte for byte, at --jobs 1 and --jobs 4 (goldens under
     test/golden/bench_fig*.txt are captures of the pre-policy harness;
     TH_UPDATE_GOLDEN=1 regenerates them, TH_GOLDEN_FULL=1 adds the
     expensive fig6 / fig9-j4 runs);

   - dominance properties: over random mutator programs whose access
     stream is policy-independent (reads target only pinned, explicitly
     tagged roots), the two-pass oracle is never worse than any
     competitor on H2 read-back bytes, and every policy's run stays
     clean under the Paranoid sanitizer;

   - determinism: the same program under the same (fresh) policy renders
     an identical run, and the tournament bench section is byte-stable
     across --jobs {1,2,4} and repeated seeds;

   - edge cases: negative labels, advice arriving before the tag, the
     resilience move gate, promotion-failure retention, and the
     lifetime-profile serialization round-trip. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module Device = Th_device.Device
module Runtime = Th_psgc.Runtime
module Rt = Th_psgc.Rt
module Verify = Th_verify.Verify
module Policy = Th_policy.Policy
module Profile = Th_policy.Profile

(* Same environment as Test_gc_props.execute: 2 MiB H1, 64 KiB regions,
   16 MiB H2. *)
let mk_rt ?policy ?(config = Test_gc_props.base_config) () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 2) () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 = H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.kib 256) () in
  let rt = Runtime.create ?policy ~h2 ~clock ~costs ~heap () in
  (rt, h2)

(* Allocate, root and tenure an object so it sits in the old generation
   (H2 moves happen during old-generation compaction). *)
let make_old ?(size = 1024) rt =
  let o = Runtime.alloc rt ~size () in
  Runtime.add_root rt o;
  for _ = 1 to 4 do
    Runtime.minor_gc rt
  done;
  Alcotest.(check bool) "precondition: object tenured" true
    (o.Obj_.loc = Obj_.Old);
  o

(* ------------------------------------------------------------------ *)
(* Random mutator programs with a policy-independent access stream.    *)

(* Reads and updates target only pinned (rooted forever), explicitly
   tagged roots, so the sequence of labelled accesses — the policies'
   logical op clock — is identical whatever placement decisions a policy
   makes. Programs stay far below the pressure thresholds (a few KiB
   live in a ~MiB old generation), so under [No_pressure] the oracle
   moves only zero-future labels: its read-back is zero by construction,
   and any read-back it does incur is a bug the dominance property
   catches. *)
type op =
  | Group of int  (* allocate + pin + tag a root with [n] children *)
  | Read of int  (* read group [i mod count] *)
  | Update of int
  | Advise of int  (* h2_move for that group's label *)
  | Minor
  | Major

let pp_op = function
  | Group n -> Printf.sprintf "Group %d" n
  | Read i -> Printf.sprintf "Read %d" i
  | Update i -> Printf.sprintf "Update %d" i
  | Advise i -> Printf.sprintf "Advise %d" i
  | Minor -> "Minor"
  | Major -> "Major"

let exec ~policy program =
  let rt, h2 = mk_rt ~policy () in
  let v = Verify.attach rt Verify.Paranoid in
  let groups : Obj_.t Vec.t = Vec.create () in
  let nth i = Vec.get groups (i mod Vec.length groups) in
  List.iter
    (fun op ->
      match op with
      | Group children ->
          let root = Runtime.alloc rt ~size:256 () in
          Runtime.add_root rt root;
          for _ = 1 to children do
            let c = Runtime.alloc rt ~size:512 () in
            Runtime.write_ref rt root c
          done;
          let label = Vec.length groups in
          (* Deliberate site collisions so lifetime profiles aggregate. *)
          Runtime.h2_tag_root rt ~site:(label mod 3) root ~label;
          Vec.push groups root
      | Read i -> if Vec.length groups > 0 then Runtime.read_obj rt (nth i)
      | Update i -> if Vec.length groups > 0 then Runtime.update_obj rt (nth i)
      | Advise i ->
          if Vec.length groups > 0 then
            Runtime.h2_move rt ~label:(nth i).Obj_.label
      | Minor -> Runtime.minor_gc rt
      | Major -> Runtime.major_gc rt)
    program;
  Runtime.major_gc rt;
  Verify.check_now v;
  (rt, h2, v)

let readback h2 = (H2.stats h2).H2.readback_bytes

(* ------------------------------------------------------------------ *)
(* Dominance property                                                  *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Group n) (int_range 0 3));
        (6, map (fun i -> Read i) (int_range 0 9));
        (3, map (fun i -> Update i) (int_range 0 9));
        (3, map (fun i -> Advise i) (int_range 0 9));
        (1, return Minor);
        (2, return Major);
      ])

let program_arb =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map pp_op p))
    QCheck.Gen.(list_size (int_range 10 50) op_gen)

let prop_oracle_dominates =
  QCheck.Test.make ~count:30
    ~name:"oracle never worse on H2 read-back; every policy paranoid-clean"
    program_arb
    (fun program ->
      let clean = ref true in
      let run policy =
        let _, h2, v = exec ~policy program in
        if Verify.violation_count v > 0 then clean := false;
        readback h2
      in
      let lifetime_rb =
        let pp, prof = Policy.profiler () in
        ignore (run pp : int);
        let prof =
          match Profile.of_string (Profile.to_string prof) with
          | Ok p -> p
          | Error e -> failwith ("profile round-trip: " ^ e)
        in
        run (Policy.lifetime prof)
      in
      let competitors =
        [
          run Policy.threshold;
          lifetime_rb;
          run (Policy.gang_locality ());
          run (Policy.two_q ());
        ]
      in
      let oracle_rb =
        let rp, fut = Policy.recording () in
        ignore (run rp : int);
        run (Policy.oracle fut)
      in
      !clean && List.for_all (fun rb -> oracle_rb <= rb) competitors)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_oracle_dominates ]

(* ------------------------------------------------------------------ *)
(* Deterministic policy-behavior tests                                 *)

(* The canonical oracle-gap scenario: two advised groups, one read ten
   times after the move epoch, one never touched again. Threshold moves
   both and pays read-back on the hot one; the oracle holds it in H1
   (its future accesses are visible from pass one) and still moves the
   dead-cold group. *)
let test_oracle_beats_threshold () =
  let program =
    [ Group 2; Group 2; Advise 0; Advise 1; Major ]
    @ List.init 10 (fun _ -> Read 0)
    @ [ Major ]
  in
  let _, th2, _ = exec ~policy:Policy.threshold program in
  let rp, fut = Policy.recording () in
  ignore (exec ~policy:rp program);
  let _, oh2, _ = exec ~policy:(Policy.oracle fut) program in
  let os = H2.stats oh2 in
  Alcotest.(check bool)
    "threshold pays read-back for the hot advised group" true
    (readback th2 > 0);
  Alcotest.(check int) "oracle read-back is zero under no pressure" 0
    os.H2.readback_bytes;
  Alcotest.(check bool) "oracle still moves the never-touched group" true
    (os.H2.moves_to_h2 >= 1)

let test_policy_run_determinism () =
  let program =
    [
      Group 2; Group 1; Advise 0; Read 0; Major; Read 0; Update 1; Group 3;
      Advise 2; Major; Read 2; Major;
    ]
  in
  List.iter
    (fun (name, mk) ->
      let run () =
        let rt, h2, v = exec ~policy:(mk ()) program in
        let s = H2.stats h2 in
        ( Clock.now_ns (Runtime.clock rt),
          s.H2.readback_bytes,
          s.H2.rmw_bytes,
          s.H2.bytes_moved,
          Verify.violation_count v )
      in
      Alcotest.(check bool)
        (name ^ ": same program, fresh policy, identical run")
        true
        (run () = run ()))
    [
      ("threshold", fun () -> Policy.threshold);
      ("lifetime", fun () -> Policy.lifetime (Profile.create ()));
      ("gang", Policy.gang_locality);
      ("2q", Policy.two_q);
    ]

let test_threshold_is_trace_silent () =
  Alcotest.(check bool)
    "default policy emits no policy/select trace instants" false
    Policy.threshold.Policy.trace_decisions

(* Runtime -> policy observation plumbing, via a recording custom
   policy built with Policy.make (moves advised roots only). *)
let test_observation_stream () =
  let events = ref [] in
  let policy =
    Policy.make ~name:"recorder" ~trace_decisions:false
      ~select:(fun ctx ~roots ->
        List.filter_map
          (fun (r : Obj_.t) ->
            if
              r.Obj_.label >= 0
              && H2.move_advised ctx.Policy.h2 ~label:r.Obj_.label
            then
              Some { Policy.root = r; cls = Policy.Advised; group = r.Obj_.label }
            else None)
          roots)
      (* th-lint: allow domain_shared — the recording runtime is built
         with mk_rt and driven serially on this test's single domain *)
      ~observe:(fun ev -> events := ev :: !events)
      ()
  in
  let rt, _ = mk_rt ~policy () in
  let hot = make_old rt in
  Runtime.h2_tag_root rt ~site:3 hot ~label:5;
  Runtime.h2_move rt ~label:5;
  Runtime.read_obj rt hot;
  Runtime.major_gc rt;
  Runtime.read_obj rt hot;
  (* A tagged, never-advised group that dies in H1. *)
  let doomed = make_old rt in
  Runtime.h2_tag_root rt doomed ~label:6;
  Runtime.remove_root rt doomed;
  Runtime.major_gc rt;
  let has p = List.exists p (List.rev !events) in
  let check name p = Alcotest.(check bool) name true (has p) in
  check "Tagged carries label and site" (function
    | Policy.Tagged { label = 5; site = 3; _ } -> true
    | _ -> false);
  check "Advice observed" (function
    | Policy.Advice { label = 5 } -> true
    | _ -> false);
  check "Major_start observed" (function
    | Policy.Major_start _ -> true
    | _ -> false);
  check "Moved observed with bytes" (function
    | Policy.Moved { label = 5; bytes; _ } -> bytes > 0
    | _ -> false);
  check "H1 access observed" (function
    | Policy.Access { label = 5; in_h2 = false; _ } -> true
    | _ -> false);
  check "H2 access observed after the move" (function
    | Policy.Access { label = 5; in_h2 = true; _ } -> true
    | _ -> false);
  check "Death observed for the unrooted group" (function
    | Policy.Death { label = 6; _ } -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

let test_negative_label_rejected () =
  let rt, _ = mk_rt () in
  let o = Runtime.alloc rt ~size:256 () in
  Runtime.add_root rt o;
  Alcotest.check_raises "negative label"
    (Invalid_argument "H2.h2_tag_root: negative label") (fun () ->
      Runtime.h2_tag_root rt o ~label:(-2))

let test_advice_before_tag () =
  let rt, _ = mk_rt () in
  let o = make_old rt in
  Runtime.h2_move rt ~label:9;
  (* Advice precedes any tag: nothing is labelled 9 yet, so nothing moves. *)
  Runtime.major_gc rt;
  Alcotest.(check bool) "untagged object stays in H1" true
    (o.Obj_.loc = Obj_.Old);
  Runtime.h2_tag_root rt o ~label:9;
  Runtime.major_gc rt;
  Alcotest.(check bool) "tag catches up with the earlier advice" true
    (o.Obj_.loc = Obj_.In_h2)

let test_breaker_gates_moves () =
  let rt, _ = mk_rt () in
  let o = make_old rt in
  Runtime.h2_tag_root rt o ~label:0;
  Runtime.h2_move rt ~label:0;
  rt.Rt.h2_move_gate <- Some (fun () -> false);
  Runtime.major_gc rt;
  Alcotest.(check bool) "gated major moves nothing" true (o.Obj_.loc = Obj_.Old);
  rt.Rt.h2_move_gate <- None;
  Runtime.major_gc rt;
  Alcotest.(check bool) "re-enabled gate moves the advised root" true
    (o.Obj_.loc = Obj_.In_h2)

let test_promotion_failure_retention () =
  (* One 64 KiB region of H2 in total: the second ~31 KiB group cannot
     fit (different label, so it needs its own region) and must be
     retained in H1, then retried — not freed, not crashed. *)
  let config =
    { Test_gc_props.base_config with H2.capacity = Size.kib 64 }
  in
  let rt, h2 = mk_rt ~config () in
  let big label =
    let root = Runtime.alloc rt ~size:256 () in
    Runtime.add_root rt root;
    for _ = 1 to 30 do
      let c = Runtime.alloc rt ~size:1024 () in
      Runtime.write_ref rt root c
    done;
    for _ = 1 to 4 do
      Runtime.minor_gc rt
    done;
    Runtime.h2_tag_root rt root ~label;
    Runtime.h2_move rt ~label;
    root
  in
  let a = big 0 in
  let b = big 1 in
  Runtime.major_gc rt;
  let s = H2.stats h2 in
  Alcotest.(check bool) "first group moved" true (a.Obj_.loc = Obj_.In_h2);
  Alcotest.(check bool) "exhausted-H2 group retained in H1" true
    (b.Obj_.loc = Obj_.Old);
  Alcotest.(check bool) "degraded move recorded" true (s.H2.degraded_moves >= 1);
  Alcotest.(check bool) "deferred objects recorded" true
    (s.H2.objects_deferred >= 1);
  Runtime.major_gc rt;
  let s2 = H2.stats h2 in
  Alcotest.(check bool) "retry degrades again; the group stays live" true
    (b.Obj_.loc = Obj_.Old && s2.H2.degraded_moves > s.H2.degraded_moves);
  (* Still a perfectly usable object. *)
  Runtime.read_obj rt b

let test_profile_roundtrip () =
  let program =
    [ Group 2; Group 0; Advise 0; Read 0; Read 1; Major; Read 0; Update 0; Major ]
  in
  let pp, prof = Policy.profiler () in
  ignore (exec ~policy:pp program);
  Alcotest.(check bool) "profile saw sites" true
    (Profile.sorted_sites prof <> []);
  (match Profile.of_string (Profile.to_string prof) with
  | Ok p ->
      Alcotest.(check bool) "round-trip equal" true (Profile.equal p prof);
      Alcotest.(check string) "serialization is canonical"
        (Profile.to_string prof) (Profile.to_string p);
      (* The round-tripped profile drives a clean lifetime run. *)
      let _, _, v = exec ~policy:(Policy.lifetime p) program in
      Alcotest.(check int) "lifetime run paranoid-clean" 0
        (Verify.violation_count v)
  | Error e -> Alcotest.failf "of_string failed on its own output: %s" e);
  match Profile.of_string "not a profile" with
  | Ok _ -> Alcotest.fail "garbage accepted by Profile.of_string"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Bench-process tests: equivalence goldens and tournament determinism *)

(* The harness binary is a declared dune dependency. `dune runtest` runs
   tests from _build/default/test (one directory over); `dune exec` runs
   them from the project root. *)
let bench_exe =
  match
    List.find_opt Sys.file_exists
      [ "../bench/main.exe"; "_build/default/bench/main.exe" ]
  with
  | Some p -> p
  | None -> "../bench/main.exe"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Spawn the bench harness, returning its stdout only: timing and the
   completion footer go to stderr precisely so stdout can be compared
   byte for byte. TH_BENCH_JSON is pointed at a scratch file so test
   runs never touch a checked-out BENCH_harness.json. *)
let run_bench ?(env = "") ~args () =
  let out = Filename.temp_file "th_bench" ".out" in
  let json = Filename.temp_file "th_bench" ".json" in
  let cmd =
    Printf.sprintf "%s TH_BENCH_JSON=%s %s %s > %s 2>/dev/null" env
      (Filename.quote json) bench_exe args (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (try Sys.remove json with Sys_error _ -> ());
  if rc <> 0 then Alcotest.failf "bench %s exited %d" args rc;
  text

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_bench_golden ~jobs ~section ~file () =
  Test_trace.golden_check ~file
    (run_bench ~args:(Printf.sprintf "--jobs %d %s" jobs section) ())

let golden_full = Sys.getenv_opt "TH_GOLDEN_FULL" <> None

let require_full () =
  if not golden_full then
    Alcotest.skip ()

(* Tournament smoke subset: one Spark and one Giraph workload at a
   reduced dataset scale (the full 15-workload matrix belongs to the
   bench harness, not the test suite). *)
let tournament_env =
  "TH_TOURNAMENT_WORKLOADS=spark:PR,giraph:BFS TH_TOURNAMENT_SCALE=0.3"

let test_tournament_jobs_identical () =
  let out j =
    run_bench ~env:tournament_env
      ~args:(Printf.sprintf "--jobs %d tournament" j)
      ()
  in
  let a = out 1 in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "render mentions %S" needle)
        true (contains a needle))
    [ "threshold"; "lifetime"; "gang"; "2q"; "oracle"; "oracle gap" ];
  Alcotest.(check string) "--jobs 2 renders identically" a (out 2);
  Alcotest.(check string) "--jobs 4 renders identically" a (out 4)

let test_tournament_seed_repeatable () =
  let run () = run_bench ~env:tournament_env ~args:"--jobs 2 --seed 11 tournament" () in
  Alcotest.(check string) "same seed, same render" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "threshold is trace-silent" `Quick
      test_threshold_is_trace_silent;
    Alcotest.test_case "observation stream reaches the policy" `Quick
      test_observation_stream;
    Alcotest.test_case "oracle beats threshold on a hot advised group" `Quick
      test_oracle_beats_threshold;
    Alcotest.test_case "fresh policies replay a program identically" `Quick
      test_policy_run_determinism;
    Alcotest.test_case "negative label is rejected" `Quick
      test_negative_label_rejected;
    Alcotest.test_case "advice before tag moves at the next major" `Quick
      test_advice_before_tag;
    Alcotest.test_case "resilience breaker gates moves" `Quick
      test_breaker_gates_moves;
    Alcotest.test_case "promotion failure retains objects in H1" `Quick
      test_promotion_failure_retention;
    Alcotest.test_case "lifetime profile round-trips" `Quick
      test_profile_roundtrip;
  ]
  @ qcheck_tests
  @ [
      Alcotest.test_case "golden: fig7 --jobs 1 equals pre-policy stdout" `Slow
        (check_bench_golden ~jobs:1 ~section:"fig7" ~file:"bench_fig7.txt");
      Alcotest.test_case "golden: fig7 --jobs 4 equals pre-policy stdout" `Slow
        (check_bench_golden ~jobs:4 ~section:"fig7" ~file:"bench_fig7.txt");
      Alcotest.test_case "golden: fig9 --jobs 1 equals pre-policy stdout" `Slow
        (check_bench_golden ~jobs:1 ~section:"fig9" ~file:"bench_fig9.txt");
      Alcotest.test_case "golden: fig9 --jobs 4 (TH_GOLDEN_FULL)" `Slow
        (fun () ->
          require_full ();
          check_bench_golden ~jobs:4 ~section:"fig9" ~file:"bench_fig9.txt" ());
      Alcotest.test_case "golden: fig6 --jobs 1 (TH_GOLDEN_FULL)" `Slow
        (fun () ->
          require_full ();
          check_bench_golden ~jobs:1 ~section:"fig6" ~file:"bench_fig6.txt" ());
      Alcotest.test_case "golden: fig6 --jobs 4 (TH_GOLDEN_FULL)" `Slow
        (fun () ->
          require_full ();
          check_bench_golden ~jobs:4 ~section:"fig6" ~file:"bench_fig6.txt" ());
      Alcotest.test_case "tournament renders identically across --jobs" `Slow
        test_tournament_jobs_identical;
      Alcotest.test_case "tournament renders identically across runs of a seed"
        `Slow test_tournament_seed_repeatable;
    ]

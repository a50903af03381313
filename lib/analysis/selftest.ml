type case = { rule : string; positive : string; negative : string }

(* One case per rule, in Rule.all order; the alcotest suite checks the
   order. *)
let cases =
  [
    {
      rule = "hashtbl-order";
      positive =
        "let dump tbl =\n\
        \  Hashtbl.iter (fun k v -> Printf.printf \"%s=%d\\n\" k v) tbl\n";
      negative =
        "(* Prose mentioning Hashtbl.iter must not trip the AST pass. *)\n\
         let note = \"calling Hashtbl.fold inside a string is harmless\"\n\
         let sorted_keys keys = List.sort String.compare keys\n";
    };
    {
      rule = "wall-clock";
      positive = "let stamp () = Sys.time ()\n";
      negative = "let stamp clock = Th_sim.Clock.now_ns clock\n";
    };
    {
      rule = "ambient-entropy";
      positive =
        "let pick xs = List.nth xs (Random.int (List.length xs))\n\
         let me () = Domain.self ()\n";
      negative =
        "let pick prng xs = List.nth xs (Th_sim.Prng.int prng (List.length xs))\n";
    };
    {
      rule = "poly-compare";
      positive =
        "let sort_names names = List.sort compare names\n\
         let h x = Hashtbl.hash x\n";
      negative =
        "let sort_names names = List.sort String.compare names\n\n\
         let with_local_compare x y =\n\
        \  let compare a b = Int.compare a b in\n\
        \  compare x y\n";
    };
    {
      rule = "float-equality";
      positive = "let is_unit x = x = 1.0\n";
      negative =
        "let is_unit x = Float.compare x 1.0 = 0\n\
         let close a b = abs_float (a -. b) < 1e-9\n";
    };
    {
      rule = "pmap-mutable-global";
      positive =
        "let total = ref 0\n\n\
         let bump n = total := !total + n\n\n\
         let cells xs =\n\
        \  List.map\n\
        \    (fun x -> Th_exec.Cell.make (fun () -> bump x; total := !total + x; x))\n\
        \    xs\n";
      negative =
        "let run sched xs =\n\
        \  let results =\n\
        \    Th_exec.Scheduler.run_cells sched\n\
        \      (List.map\n\
        \         (fun x ->\n\
        \           Th_exec.Cell.make (fun () -> let acc = ref 0 in acc := x; !acc))\n\
        \         xs)\n\
        \  in\n\
        \  let total = ref 0 in\n\
        \  List.iter (fun r -> total := !total + r) results;\n\
        \  !total\n";
    };
    {
      rule = "escape-capture";
      positive =
        "let cells xs =\n\
        \  let acc = ref 0 in\n\
        \  List.map (fun x -> Th_exec.Cell.make (fun () -> acc := !acc + x; x)) xs\n";
      negative =
        "let cells xs =\n\
        \  let hits = Atomic.make 0 [@th.atomic \"shared hit counter\"] in\n\
        \  List.map (fun x -> Th_exec.Cell.make (fun () -> Atomic.incr hits; x)) xs\n";
    };
    {
      rule = "atomic-missing-role";
      positive =
        "let pending = Atomic.make 0\n\nlet bump () = Atomic.incr pending\n";
      negative =
        "let pending =\n\
        \  Atomic.make 0 [@th.atomic \"outstanding cells, bumped via RMW\"]\n\n\
         let bump () = Atomic.incr pending\n";
    };
    {
      rule = "atomic-plain-write";
      positive =
        "type t = { top : int Atomic.t [@th.atomic \"cursor, claimed via CAS\"] }\n\n\
         let steal t =\n\
        \  let v = Atomic.get t.top in\n\
        \  if Atomic.compare_and_set t.top v (v + 1) then Some v else None\n\n\
         let reset t = Atomic.set t.top 0\n";
      negative =
        "type t = { top : int Atomic.t [@th.atomic \"cursor, claimed via CAS\"] }\n\n\
         let steal t =\n\
        \  let v = Atomic.get t.top in\n\
        \  if Atomic.compare_and_set t.top v (v + 1) then Some v else None\n";
    };
    {
      rule = "atomic-plain-read";
      positive =
        "type t = { size : int Atomic.t [@th.atomic \"count, reconciled via CAS\"] }\n\n\
         let rec add t n =\n\
        \  let v = Atomic.get t.size in\n\
        \  if not (Atomic.compare_and_set t.size v (v + n)) then add t n\n\n\
         let peek t = Atomic.get t.size\n";
      negative =
        "type t = { size : int Atomic.t [@th.atomic \"count, reconciled via CAS\"] }\n\n\
         let rec add t n =\n\
        \  let v = Atomic.get t.size in\n\
        \  if not (Atomic.compare_and_set t.size v (v + n)) then add t n\n";
    };
    {
      rule = "atomic-check-then-act";
      positive =
        "let closed = Atomic.make false [@th.atomic \"one-shot shutdown latch\"]\n\n\
         let shutdown () = if not (Atomic.get closed) then Atomic.set closed true\n";
      negative =
        "let closed = Atomic.make false [@th.atomic \"one-shot shutdown latch\"]\n\n\
         let shutdown () = ignore (Atomic.compare_and_set closed false true)\n";
    };
    {
      rule = "fault-barrier";
      positive =
        "exception Io_error of string\n\n\
         let fetch () = raise (Io_error \"disk\")\n";
      negative =
        "exception Io_error of string\n\n\
         let fetch () = raise (Io_error \"disk\") [@@th.raises \"Io_error\"]\n\n\
         let total () = try fetch () with Io_error _ -> ()\n";
    };
    {
      rule = "cell-boundary";
      positive =
        "exception Io_error of string\n\n\
         let risky () = raise (Io_error \"disk\") [@@th.raises \"Io_error\"]\n\n\
         let cells xs = List.map (fun x -> Th_exec.Cell.make (fun () -> risky (); x)) xs\n";
      negative =
        "exception Io_error of string\n\n\
         let risky () = raise (Io_error \"disk\") [@@th.raises \"Io_error\"]\n\n\
         let cells xs =\n\
        \  List.map\n\
        \    (fun x ->\n\
        \      Th_exec.Cell.make (fun () ->\n\
        \          (try risky () with Io_error _ -> ());\n\
        \          x))\n\
        \    xs\n";
    };
    {
      rule = "pure-render";
      positive =
        "exception Bad of string\n\n\
         let plan p =\n\
        \  Th_exec.Plan.seal p ~render:(fun v ->\n\
        \      if v < 0 then raise (Bad \"negative\") else string_of_int v)\n";
      negative =
        "let plan p =\n\
        \  Th_exec.Plan.seal p ~render:(fun v ->\n\
        \      let b = Buffer.create 16 in\n\
        \      Buffer.add_string b (string_of_int v);\n\
        \      Buffer.contents b)\n";
    };
    {
      rule = "catch-all-match";
      positive =
        "type state = Clean | Dirty | Young_gen | Old_gen\n\n\
         let scan s = match s with Clean -> 0 | _ -> 1\n";
      negative =
        "type state = Clean | Dirty | Young_gen | Old_gen\n\n\
         let scan s =\n\
        \  match s with Clean -> 0 | Dirty -> 1 | Young_gen -> 2 | Old_gen -> 3\n\n\
         let unrelated x = match x with None -> 0 | _ -> 1\n";
    };
    {
      rule = "obj-magic";
      positive = "let coerce x = Obj.magic x\n";
      negative =
        "(* Obj.magic is discussed in prose only. *)\n\
         let magic = \"Obj.magic\"\n\
         let id x = x\n";
    };
    {
      rule = "assert-false";
      positive = "let impossible () = assert false\n";
      negative =
        "let check n = assert (n >= 0)\n\
         let prose = \"assert false inside a string\"\n";
    };
  ]

let fixture_basename ~polarity rule =
  String.map (fun c -> if c = '-' then '_' else c) rule
  ^ (match polarity with `Pos -> "_pos.ml" | `Neg -> "_neg.ml")

let analyze_snippet ~file src =
  match Source.parse_string ~file src with
  | Ok s -> Ok (Engine.analyze [ s ])
  | Error m -> Error m

let has_rule rule fs = List.exists (fun f -> String.equal f.Finding.rule rule) fs

let run () =
  let failures = ref [] and passed = ref 0 in
  let check name cond =
    if cond then incr passed else failures := name :: !failures
  in
  List.iter
    (fun c ->
      (match
         analyze_snippet ~file:(fixture_basename ~polarity:`Pos c.rule) c.positive
       with
      | Ok r ->
          check
            (Printf.sprintf "%s: positive snippet triggers" c.rule)
            (has_rule c.rule r.Engine.findings)
      | Error m ->
          failures :=
            Printf.sprintf "%s: positive snippet does not parse: %s" c.rule m
            :: !failures);
      match
        analyze_snippet ~file:(fixture_basename ~polarity:`Neg c.rule) c.negative
      with
      | Ok r ->
          check
            (Printf.sprintf "%s: negative snippet is clean" c.rule)
            (not
               (has_rule c.rule r.Engine.findings
               || has_rule c.rule r.Engine.waived))
      | Error m ->
          failures :=
            Printf.sprintf "%s: negative snippet does not parse: %s" c.rule m
            :: !failures)
    cases;
  (* Waivers must divert findings to the waived list, never drop them. *)
  (match
     analyze_snippet ~file:"waiver_probe.ml"
       "(* th-lint: allow hashtbl-order — self-test probe *)\n\
        let dump tbl = Hashtbl.iter (fun _ v -> print_int v) tbl\n"
   with
  | Ok r ->
      check "comment waiver suppresses the finding"
        (not (has_rule "hashtbl-order" r.Engine.findings));
      check "comment waiver preserves the finding as waived"
        (has_rule "hashtbl-order" r.Engine.waived)
  | Error m -> failures := ("waiver probe does not parse: " ^ m) :: !failures);
  (* The bounded-interleaving harness: the real deque must pass the
     quick configurations, and the seeded-bug variant must fail at
     least one — otherwise the harness has lost its teeth. *)
  check "interleave: deque linearizable under quick configs"
    (List.for_all
       (fun (r : Deque_check.report) -> r.violations = [])
       (Deque_check.check ()));
  check "interleave: seeded-bug deque rejected"
    (List.exists
       (fun (r : Deque_check.report) -> r.violations <> [])
       (Deque_check.check_buggy ()));
  match !failures with
  | [] -> Ok !passed
  | msgs -> Error (List.rev msgs)

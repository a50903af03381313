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
  match !failures with
  | [] -> Ok !passed
  | msgs -> Error (List.rev msgs)

type family =
  | Determinism
  | Domain_safety
  | Hygiene

type t = {
  name : string;
  family : family;
  severity : Finding.severity;
  synopsis : string;
  explain : string;
}

let family_to_string = function
  | Determinism -> "determinism"
  | Domain_safety -> "domain-safety"
  | Hygiene -> "invariant-hygiene"

(* [Syntax.worker_sinks] as an indented, wrapped block for the explain
   texts, so the prose can never name a different set than the rules
   check. *)
let worker_sinks_block =
  Format.asprintf "@[<hov 2>  %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (m, f) -> Format.fprintf ppf "%s.%s" m f))
    Syntax.worker_sinks

let all =
  [
    {
      name = "hashtbl-order";
      family = Determinism;
      severity = Finding.Error;
      synopsis =
        "Hashtbl.iter/fold/to_seq visit bindings in unspecified hash order";
      explain =
        "The reproduction's validity rests on byte-identical stdout, CSV and \n\
         traces for any --jobs and any machine. Hashtbl iteration order \n\
         depends on the hash function and insertion history, so any \n\
         observable result built by Hashtbl.iter, Hashtbl.fold or \n\
         Hashtbl.to_seq* can differ between runs. Iterate a sorted view \n\
         (collect keys, sort with a typed comparator, then look up), or \n\
         waive the site when the body is provably order-insensitive \n\
         (commutative accumulation, independent per-key updates) and say \n\
         why in the waiver comment.";
    };
    {
      name = "wall-clock";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "real time read outside Th_exec.Wall (Sys.time, Unix.gettimeofday)";
      explain =
        "Simulated results must never depend on host time: every duration \n\
         in reports and traces comes from Th_sim.Clock. Sys.time, \n\
         Unix.gettimeofday, Unix.time and friends leak host-machine state \n\
         into the run. Harness self-timing (BENCH_harness.json, stderr \n\
         progress) is the one legitimate consumer and routes through \n\
         Th_exec.Wall or carries an explicit waiver stating the value \n\
         never reaches deterministic output.";
    };
    {
      name = "ambient-entropy";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "stdlib Random or Domain.self used as data";
      explain =
        "All stochastic choices must draw from an explicitly seeded \n\
         Th_sim.Prng stream so equal seeds give equal runs. Stdlib Random \n\
         (seeded or not — its state is global and shared across domains) \n\
         and Domain.self (an allocation-order-dependent token) smuggle \n\
         ambient nondeterminism into results. Thread a Th_sim.Prng.t, or \n\
         key per-domain state by submission index instead of domain id.";
    };
    {
      name = "poly-compare";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "polymorphic compare/hash where a typed comparator exists";
      explain =
        "Polymorphic compare walks runtime representations: it is slow on \n\
         the sort-heavy render paths, raises on functional values, and \n\
         orders floats with NaN traps. Structural equality on composite \n\
         literals has the same failure modes. Use the typed comparator \n\
         (Int.compare, String.compare, Float.compare, or a hand-written \n\
         lexicographic one) so the ordering is explicit in the source.";
    };
    {
      name = "float-equality";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "= or <> on floating-point operands";
      explain =
        "Float equality is a correctness trap: NaN compares unequal to \n\
         itself and accumulated rounding makes equality contingent on \n\
         evaluation order — exactly what changes when work is re-batched \n\
         across domains. Compare against an epsilon, use Float.compare's \n\
         total order, or restructure to integer nanoseconds/bytes as the \n\
         simulator clock does.";
    };
    {
      name = "pmap-mutable-global";
      family = Domain_safety;
      severity = Finding.Error;
      synopsis =
        "mutable top-level state reachable from a closure run on a worker \
         domain";
      explain =
        "Benchmark cells submitted to the domain scheduler execute \n\
         on worker domains, and the select/observe callbacks of a \n\
         placement policy run on whichever worker domain owns the runtime \n\
         that installs the policy. The rule inspects every closure passed \n\
         to one of these worker-domain sinks:\n\n"
        ^ worker_sinks_block
        ^ "\n\n\
         Any top-level ref, Hashtbl, Vec, Buffer or array such a \n\
         closure touches — directly or through a called function, which \n\
         this rule resolves over the intra-library call graph — is shared \n\
         across domains without synchronisation: a data race, and even \n\
         when benign the interleaving is nondeterministic. Confine mutable \n\
         state to the cell (create it inside the closure) and mutate \n\
         shared structures only on the serial render path after the batch \n\
         returns.";
    };
    {
      name = "escape-capture";
      family = Domain_safety;
      severity = Finding.Error;
      synopsis =
        "local mutable value captured by a closure handed to a worker domain";
      explain =
        "Closures passed to these sinks execute on worker domains \n\
         (placement-policy callbacks run on the domain that owns the \n\
         runtime — build each policy inside its cell):\n\n"
        ^ worker_sinks_block
        ^ "\n\n\
         A captured local ref, array, Hashtbl, Buffer or record with \n\
         mutable fields becomes cross-domain shared state with no \n\
         synchronisation — the OCaml memory model makes the racing \n\
         accesses themselves well-defined, but the values observed are \n\
         not, and torn protocols (index published before payload) \n\
         follow. Allocate the state inside the closure so it is \n\
         domain-local, switch to Atomic.t (which the rule recognises and \n\
         never flags), or — when the sharing is by design, \n\
         e.g. a single-writer result slot read only after the batch joins, \n\
         or disjoint array indices per cell — bless the capture with \n\
         [@th.allow \"domain_shared <why it is safe>\"]. The justification \n\
         is mandatory: a bare \"domain_shared\" token waives nothing, and \n\
         a blessed finding is diverted to the waived list, never dropped.";
    };
    {
      name = "catch-all-match";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "wildcard branch in a match over card states or trace events";
      explain =
        "Matches over H2_card_table.state/event and Th_trace.Event \n\
         constructors must stay exhaustive by listing every constructor: \n\
         a catch-all branch silently absorbs any card state or trace \n\
         event added later, so the consumer (sanitizer rule, rollup, \n\
         exporter) keeps compiling but no longer audits the new case. \n\
         Replace `_` with the explicit constructors it stands for; adding \n\
         a constructor then breaks every consumer at compile time, which \n\
         is the point.";
    };
  ]

let missing_mli =
  {
    name = "missing-mli";
    family = Hygiene;
    severity = Finding.Error;
    synopsis = "lib/ compilation unit without a sealing .mli (file-system check)";
    explain =
      "Every library compilation unit must be sealed by an interface. \n\
       This is the one check that cannot live at the AST level: Fscheck \n\
       runs it against the file system and reports every .ml file under \n\
       a lib path segment with no sibling .mli. bin/, bench/ and test/ \n\
       hold executables and test runners and are exempt. The interface \n\
       keeps a module's internal state (tables, refs, helpers) out of \n\
       reach of other libraries.";
  }

let catalog = all @ [ missing_mli ]

let names = List.map (fun r -> r.name) catalog

let find name = List.find_opt (fun r -> String.equal r.name name) catalog

let explain_text r =
  let body =
    Printf.sprintf "%s (%s, %s)\n  %s\n\n%s\n\n" r.name
      (family_to_string r.family)
      (Finding.severity_to_string r.severity)
      r.synopsis r.explain
  in
  if String.equal r.name missing_mli.name then
    body ^ "A missing file has no site to waive: add the .mli.\n"
  else
    body
    ^ Printf.sprintf
        "Waive a specific site with [@th.allow %S] on the expression, a\n\
         whole definition with [@@th.allow %S], a file with [@@@th.allow \
         %S],\n\
         or a comment (* th-lint: allow %s *) on the line or up to three \
         lines\n\
         above the finding. Every waiver should say why the site is safe.\n"
        r.name r.name r.name r.name

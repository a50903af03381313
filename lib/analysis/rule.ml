type family =
  | Determinism
  | Domain_safety
  | Atomic_protocol
  | Exception_flow
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
  | Atomic_protocol -> "atomic-protocol"
  | Exception_flow -> "exception-flow"
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
        "Benchmark cells submitted to the work-stealing scheduler execute \n\
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
      name = "atomic-missing-role";
      family = Atomic_protocol;
      severity = Finding.Error;
      synopsis = "Atomic.t declaration without a [@th.atomic \"role\"] annotation";
      explain =
        "Every Atomic.t in this codebase participates in a protocol the \n\
         type system cannot express: the deque's top is stolen via CAS, \n\
         the scheduler's remaining counter is only Atomic.set while \n\
         workers are quiesced. The [@th.atomic \"...\"] annotation states \n\
         that protocol next to the declaration — who writes the location, \n\
         through which primitives, in which phase — so the atomic-protocol \n\
         rules can cite it in findings and --explain can surface it. \n\
         Annotate record fields as \n\
         [top : int Atomic.t [@th.atomic \"top pointer, stolen via CAS\"]] \n\
         and top-level bindings as \n\
         [let hits = Atomic.make 0 [@th.atomic \"shared hit counter\"]].";
    };
    {
      name = "atomic-plain-write";
      family = Atomic_protocol;
      severity = Finding.Error;
      synopsis = "Atomic.set on a location elsewhere updated by CAS-class ops";
      explain =
        "A location that other code claims with compare_and_set, \n\
         fetch_and_add or exchange is contended by construction; a plain \n\
         Atomic.set to it can overwrite a concurrent RMW that already \n\
         succeeded — the lost-update race. Reach the new value through \n\
         compare_and_set (retrying from a fresh read), or, when the store \n\
         is protocol-safe because no rival can be running (e.g. the \n\
         scheduler resets counters while every worker is quiesced at the \n\
         epoch barrier), waive the site stating that phase argument.";
    };
    {
      name = "atomic-plain-read";
      family = Atomic_protocol;
      severity = Finding.Error;
      synopsis =
        "Atomic.get of a CAS-contended location with no CAS in the reader";
      explain =
        "Reading a CAS-contended location is only meaningful as the input \n\
         to a CAS that validates the value is still current — the \n\
         retry-loop idiom, which this rule never flags. A definition that \n\
         reads such a location and performs no compare_and_set on it is \n\
         acting on a snapshot that may be stale before the next \n\
         instruction. Either feed the read into a compare_and_set, or \n\
         waive the site stating why staleness is acceptable (monitoring \n\
         counters, size hints like Deque.size that are advisory by \n\
         contract).";
    };
    {
      name = "atomic-check-then-act";
      family = Atomic_protocol;
      severity = Finding.Error;
      synopsis = "Atomic.get guarding an Atomic.set to the same location";
      explain =
        "if Atomic.get x = v then Atomic.set x v' is the check-then-act \n\
         race: between the read and the write any other domain can change \n\
         x, and the set then clobbers that update based on a stale \n\
         premise. compare_and_set exists precisely to close this window — \n\
         it re-validates the check and the act as one atomic step. The \n\
         rule fires on a get of a location guarding a plain set to the \n\
         same location (through if or while) with no interposing CAS on \n\
         it; rewrite with compare_and_set, or waive with the protocol \n\
         phase that rules out rivals.";
    };
    {
      name = "fault-barrier";
      family = Exception_flow;
      severity = Finding.Error;
      synopsis =
        "a fault exception escapes a definition that neither handles nor \
         declares it";
      explain =
        "The TeraHeap contract assumes device and H2 faults surface at the \n\
         barriers built to absorb them: Io_retry episodes retry and \n\
         degrade Io_error, ps_gc's move passes defer objects when H2.alloc \n\
         raises Out_of_h2_space. The raises analysis infers, per \n\
         definition and to fixpoint over the cross-library call graph, \n\
         which typed exception constructors can escape; this rule fires \n\
         when a fault exception leaks from a definition with no handler \n\
         and no [@@th.raises \"Exn\"] declaration — the silent conversion \n\
         of a Degraded outcome into a crash. Out_of_memory and \n\
         Invalid_heap_state are exempt (the scheduler's documented \n\
         ambient pair, audited at cell boundaries instead), and \n\
         Out_of_h2_space may never escape a Ps_gc definition, declared or \n\
         not. Fix by handling the exception where the fallback lives, or \n\
         declare the contract with [@@th.raises \"Exn ...\"] so every \n\
         caller inherits the obligation; inference never widens a \n\
         declared summary.";
    };
    {
      name = "cell-boundary";
      family = Exception_flow;
      severity = Finding.Error;
      synopsis =
        "a thunk handed to a worker-domain sink can leak beyond \
         Out_of_memory/Invalid_heap_state";
      explain =
        "The work-stealing scheduler captures a cell's exception, drains \n\
         the batch, and re-raises the first failure on the submitting \n\
         domain — a protocol documented for Out_of_memory and \n\
         Invalid_heap_state only. Any other exception crossing the cell \n\
         boundary (an Io_error that skipped its retry episode, a \n\
         Not_serializable from a fallback path) aborts the whole batch \n\
         and loses the per-cell outcome the benchmarks record. The rule \n\
         evaluates the raises summary of every closure handed to one of \n\
         these worker-domain sinks:\n\n"
        ^ worker_sinks_block
        ^ "\n\n\
         It flags each constructor outside the allowed pair. Handle the \n\
         exception inside the cell and fold it into the result value \n\
         (Run_result's Degraded/Failed outcomes exist for this).";
    };
    {
      name = "pure-render";
      family = Exception_flow;
      severity = Finding.Error;
      synopsis = "a Plan render function can raise or touch mutable globals";
      explain =
        "Plan.seal ~render registers the serial epilogue that formats a \n\
         section's results after its cells complete; the batching \n\
         refactor's byte-identical-output guarantee rests on renders \n\
         being pure functions of the futures they read. A render that \n\
         raises tears down the bench loop mid-report, and one that \n\
         mutates a global couples sections whose execution order is a \n\
         scheduling accident. The rule evaluates the render's raises \n\
         summary (every constructor is a finding — failures belong in \n\
         cell results, resolved before rendering) and walks its \n\
         reachable definitions for mutable top-level state, flagging \n\
         any it finds. Accumulate on the serial path after the batch \n\
         returns, then render the accumulated values.";
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
    {
      name = "obj-magic";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "Obj.magic defeats the type system";
      explain =
        "Obj.magic turns a type error into memory corruption the \n\
         Th_verify sanitizer can only catch at runtime, if a seed happens \n\
         to trigger it. There is no legitimate use in this codebase.";
    };
    {
      name = "assert-false";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "bare `assert false` carries no diagnostic context";
      explain =
        "A bare `assert false` reports only a file and line when the \n\
         impossible happens — in a seeded simulator the seed, heap phase \n\
         and offending value are all available and all lost. Raise a \n\
         contextful exception instead (Rt.Invalid_heap_state, invalid_arg \n\
         with the unexpected shape, failwith with the seed).";
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

(** The rule engine: one pass of syntactic rules per file, a
    cross-library effect analysis (mutable globals and escaping
    captures at domain-crossing sinks) — and the one place where
    waivers are applied.

    The escape-capture rule has a dedicated bless token: [@th.allow
    "domain_shared <justification>"] diverts the finding to [waived].
    The justification is mandatory — a bare ["domain_shared"] payload
    waives nothing.

    Waivers, from narrowest to widest scope:
    - [[@th.allow "rule"]] on an expression covers that subtree;
    - [[@@th.allow "rule"]] on a value binding covers the definition;
    - [[@@@th.allow "rule"]] covers the structure it sits in: the whole
      file at top level, the module body when nested;
    - [(* th-lint: allow rule *)] covers findings on the comment's last
      line and the three lines below it (so the comment sits above the
      site).

    Each file's waivers are collected once as source spans; a finding
    is waived when its position lies inside a span naming its rule.

    A waived finding is still produced — it lands in [waived] instead of
    [findings] — so reports can show what was suppressed and tests can
    assert that waiving never invents or destroys findings. *)

type result = {
  findings : Finding.t list;  (** unwaived, sorted by {!Finding.compare} *)
  waived : Finding.t list;  (** suppressed by a waiver, same order *)
}

val parse_error_rule : string
(** Pseudo-rule name ["parse-error"] used for files the compiler's
    parser rejects. Not waivable and not disabled by [?rules]. *)

val analyze : ?rules:string list -> Source.t list -> result
(** Run the engine over already-parsed units. [?rules] restricts checks
    to the given rule names (default: all). The whole list is analyzed
    together: cross-module effect propagation for the
    [pmap-mutable-global] rule only sees modules in the list. *)

val analyze_files : ?rules:string list -> string list -> result
(** Parse then {!analyze}. A file that fails to parse contributes a
    [parse-error] finding carrying the parser's message. *)

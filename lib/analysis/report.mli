(** Reporters: compiler-style text and a stable JSON document.

    The JSON schema (version 1):
    {v
    { "version": 1,
      "findings": [ { "file": "...", "line": 3, "col": 2,
                      "rule": "hashtbl-order", "severity": "error",
                      "message": "..." }, ... ],
      "waived":   [ ... same shape ... ] }
    v}

    Output is deterministic: fixed key order, findings pre-sorted by
    the engine. *)

val to_text : ?waived:Finding.t list -> Finding.t list -> string
(** One finding per line via {!Finding.to_string}, then a summary line.
    Waived findings are listed (marked) only when [waived] is given. *)

val to_json : ?waived:Finding.t list -> Finding.t list -> string

val to_sarif : ?waived:Finding.t list -> Finding.t list -> string
(** SARIF 2.1.0 (minimal profile): one run, driver ["th-lint"] with the
    full rule registry as rule metadata, one result per finding. Waived
    findings become results carrying an [inSource] suppression, so
    SARIF viewers show them as deliberately accepted rather than
    dropping them. Deterministic output; only strings and integers. *)

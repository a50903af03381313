(** Embedded per-rule fixtures and the [--self-test] runner.

    Each case pairs one minimal positive snippet (must produce at least
    one finding of its rule) with one negative snippet (must produce
    none — typically the idiomatic fix, or prose/strings that fooled
    the old char-level linter). These snippets are the only copy: the
    alcotest suite analyzes them under their {!fixture_basename}, and
    embedding them lets [lint.exe --self-test] run anywhere, including
    from [dune runtest] sandboxes, without filesystem dependencies. *)

type case = {
  rule : string;
  positive : string;  (** source that must trigger [rule] *)
  negative : string;  (** source that must not trigger [rule] *)
}

val cases : case list
(** One case per rule in {!Rule.all} order. *)

val fixture_basename : polarity:[ `Pos | `Neg ] -> string -> string
(** The file name a rule's snippet is analyzed under, e.g.
    [fixture_basename ~polarity:`Pos "hashtbl-order"] is
    ["hashtbl_order_pos.ml"]. *)

val run : unit -> (int, string list) result
(** Run every case and a comment-waiver probe. [Ok n] is the number of
    checks passed; [Error msgs] lists every failed expectation. *)

(** Atomic-protocol checker over a module's [Atomic.t] usage.

    Locations are identified syntactically per module ([t.top] is
    [".top"], a bare identifier is its name); a functor parameter that
    performs CAS-class operations anywhere in the file is treated as an
    atomics module alongside [Atomic]. Four rules:
    [atomic-missing-role] (declarations must carry
    [[@th.atomic "role"]]), [atomic-plain-write] ([Atomic.set] on a
    CAS/RMW-contended location), [atomic-plain-read] ([Atomic.get] of a
    CAS-contended location in a definition performing no CAS on it),
    and [atomic-check-then-act] (a get guarding a set to the same
    location with no interposing CAS). *)

val analyze : Parsetree.structure -> Finding.raw list
(** All atomic-protocol findings for one module, in emission order
    (missing roles, plain writes, plain reads, check-then-act). *)

val roles : Parsetree.structure -> (string * string) list
(** [(location, role)] for every [[@th.atomic]]-annotated declaration;
    surfaced by [--explain] and used in finding messages. *)

open Parsetree
module SS = Syntax.SS

type result = { findings : Finding.t list; waived : Finding.t list }

let parse_error_rule = "parse-error"

(* ------------------------------------------------------------------ *)
(* Per-file analysis context                                           *)

(* Classification of a local binding for the escape analysis: what does
   capturing it hand to a worker domain? *)
type local_class =
  | Mut  (** ref / array / Hashtbl / record with mutable fields *)
  | Safe  (** Atomic.t, Mutex, Condition — shareable by construction *)
  | Unknown

(* ------------------------------------------------------------------ *)
(* Waivers                                                             *)

(* One waiver: the tokens it allows and the source extent it covers,
   as (line, column) bounds, [first] inclusive and [last] exclusive. *)
type span = { first : int * int; last : int * int; tokens : string list }

let point (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol)

let not_after (l, c) (l', c') = l < l' || (l = l' && c <= c')

(* Every waiver of a file, collected once: an attribute covers the node
   it is attached to (expression, value binding, record field,
   top-level expression); a floating [[@@@th.allow]] covers the whole
   file at top level and the module body when nested; a comment covers
   its last line and the three below it. *)
let waiver_spans (s : Source.t) str =
  let spans = ref [] in
  let add first last tokens =
    if tokens <> [] then spans := { first; last; tokens } :: !spans
  in
  let attrs (loc : Location.t) a =
    add (point loc.loc_start) (point loc.loc_end) (Syntax.attr_allows a)
  in
  let floating first last items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_attribute a -> add first last (Syntax.attr_allows [ a ])
        | _ -> ())
      items
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          attrs e.pexp_loc e.pexp_attributes;
          default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          attrs vb.pvb_loc vb.pvb_attributes;
          default_iterator.value_binding it vb);
      label_declaration =
        (fun it ld ->
          attrs ld.pld_loc ld.pld_attributes;
          default_iterator.label_declaration it ld);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_eval (_, a) -> attrs si.pstr_loc a
          | _ -> ());
          default_iterator.structure_item it si);
      structure =
        (fun it items ->
          (match (items, List.rev items) with
          | first :: _, last :: _ ->
              floating
                (point first.pstr_loc.loc_start)
                (point last.pstr_loc.loc_end)
                items
          | _ -> ());
          default_iterator.structure it items);
    }
  in
  floating (0, 0) (max_int, max_int) str;
  List.iter (it.structure_item it) str;
  List.iter
    (fun (l, tokens) -> add (l, 0) (l + 3, max_int) tokens)
    (Source.line_waivers s);
  !spans

type ctx = {
  file : string;
  modname : string;
  lib : string;
  enabled : string -> bool;
  module_defs : SS.t;  (** top-level value names — they shadow stdlib *)
  waivers : span list;
  scope : local_class Syntax.scope;
      (** escape-analysis classification of the locals in scope *)
  db : Callgraph.t;
  mutable findings : Finding.t list;
  mutable waived : Finding.t list;
}

let local_class ctx n =
  Option.value ~default:Unknown (Syntax.innermost ctx.scope n)

(* Does a waiver naming [tok] (a rule name, or a bless token like
   [domain_shared]) cover the start of [loc]? *)
let waived_at ctx (loc : Location.t) tok =
  let p = point loc.loc_start in
  List.exists
    (fun s ->
      not_after s.first p && not (not_after s.last p) && List.mem tok s.tokens)
    ctx.waivers

(* [blessed] diverts the finding even when no waiver names its rule: an
   escape capture under a [domain_shared] token, or a global blessed at
   its definition. *)
let emit ?(blessed = false) ctx ~(loc : Location.t) ~rule message =
  if ctx.enabled rule then begin
    let severity =
      match Rule.find rule with
      | Some r -> r.Rule.severity
      | None -> Finding.Error
    in
    let f =
      {
        Finding.file = ctx.file;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        rule;
        severity;
        message;
      }
    in
    if blessed || waived_at ctx loc rule then ctx.waived <- f :: ctx.waived
    else ctx.findings <- f :: ctx.findings
  end

(* ------------------------------------------------------------------ *)
(* Rule: identifier vocabularies                                       *)

let hashtbl_order_fns =
  SS.of_list [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let wall_clock_idents =
  [
    ("Sys", "time");
    ("Unix", "gettimeofday");
    ("Unix", "time");
    ("Unix", "gmtime");
    ("Unix", "localtime");
  ]

let check_ident ctx lid (loc : Location.t) =
  let path = Syntax.flatten_lid lid in
  (match path with
  | [ "compare" ]
    when not (Syntax.bound ctx.scope "compare")
         && not (SS.mem "compare" ctx.module_defs) ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic compare; use a typed comparator (Int.compare, \
         String.compare, Float.compare, ...)"
  | [ "Stdlib"; "compare" ] ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic Stdlib.compare; use a typed comparator"
  | _ -> ());
  if List.exists (String.equal "Random") path && not (String.equal ctx.modname "Prng")
  then
    emit ctx ~loc ~rule:"ambient-entropy"
      "stdlib Random draws from global, cross-domain shared state; use a \
       seeded Th_sim.Prng stream";
  match Syntax.last2 path with
  | Some ("Hashtbl", fn) when SS.mem fn hashtbl_order_fns ->
      emit ctx ~loc ~rule:"hashtbl-order"
        (Printf.sprintf
           "Hashtbl.%s visits bindings in unspecified hash order; iterate a \
            sorted view or waive with a justification"
           fn)
  | Some ("Hashtbl", ("hash" | "seeded_hash")) ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic Hashtbl.hash walks the runtime representation; hash a \
         canonical key instead"
  | Some ("Domain", "self") ->
      emit ctx ~loc ~rule:"ambient-entropy"
        "Domain.self is an allocation-order-dependent token; key per-domain \
         state by submission index instead"
  | Some ((m, fn) as q) when List.mem q wall_clock_idents ->
      if not (String.equal ctx.modname "Wall") then
        emit ctx ~loc ~rule:"wall-clock"
          (Printf.sprintf
             "%s.%s reads host time; simulated results must come from \
              Th_sim.Clock (harness self-timing goes through Th_exec.Wall)"
             m fn)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Rule: float equality / composite equality                           *)

let float_non_float_results =
  SS.of_list
    [
      "compare"; "equal"; "hash"; "to_int"; "to_string"; "is_nan"; "is_finite";
      "is_integer"; "sign_bit";
    ]

let float_ops =
  SS.of_list [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let rec is_floaty e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (e', t) -> (
      is_floaty e'
      ||
      match t.ptyp_desc with
      | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Syntax.flatten_lid txt with
      | [ op ] when SS.mem op float_ops -> true
      | [ ("float_of_int" | "float_of_string") ] -> true
      | path -> (
          match Syntax.last2 path with
          | Some ("Float", fn) -> not (SS.mem fn float_non_float_results)
          | _ -> false))
  | _ -> false

let is_composite_literal e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule: catch-all matches over sensitive constructor vocabularies     *)

let sensitive_constructors =
  SS.of_list
    [
      (* H2_card_table.state *)
      "Clean"; "Dirty"; "Young_gen"; "Old_gen";
      (* H2_card_table.event *)
      "Barrier_dirty"; "Recompute"; "Bulk_clear";
      (* Th_trace.Event.kind *)
      "Span_begin"; "Span_end"; "Complete"; "Instant"; "Counter";
    ]

let check_catch_all ctx cases =
  let mentions_sensitive =
    List.exists
      (fun c ->
        List.exists
          (fun n -> SS.mem n sensitive_constructors)
          (Syntax.pat_constructors c.pc_lhs))
      cases
  in
  if mentions_sensitive then
    List.iter
      (fun c ->
        if Syntax.is_catch_all c.pc_lhs then
          emit ctx ~loc:c.pc_lhs.ppat_loc ~rule:"catch-all-match"
            "catch-all branch in a match over card states or trace events; \
             list the constructors explicitly so new ones force a revisit")
      cases

(* ------------------------------------------------------------------ *)
(* Rules at domain-crossing sinks: mutable globals reachable from the  *)
(* closure (pmap-mutable-global) and captured mutable locals           *)
(* (escape-capture)                                                    *)

let check_pmap_site ctx callee args =
  let seen = Hashtbl.create 8 in
  let seen_escape = Hashtbl.create 8 in
  let report (loc : Location.t) key ~via ~blessed =
    if not (Hashtbl.mem seen (key, loc.loc_start.pos_lnum)) then begin
      Hashtbl.replace seen (key, loc.loc_start.pos_lnum) ();
      let via_s =
        match via with
        | None -> ""
        | Some k -> Printf.sprintf " (via %s.%s)" k.Callgraph.modname k.name
      in
      emit ~blessed ctx ~loc ~rule:"pmap-mutable-global"
        (Printf.sprintf
           "mutable global %s (defined at %s) is reachable from a closure \
            passed to %s%s; cells run on worker domains, so confine mutable \
            state to the cell or the serial render path"
           (Callgraph.key_to_string key)
           (Callgraph.global_site ctx.db key)
           callee via_s)
    end
  in
  let blessed_of key =
    match Callgraph.global_info ctx.db key with
    | Some (_, b) -> b
    | None -> false
  in
  List.iter
    (fun (_, arg) ->
      Syntax.iter_unshadowed_idents arg ~f:(fun lid loc ->
          (* The iterator's own table covers bindings inside [arg]; the
             ctx tables cover locals of the enclosing scope. An
             enclosing local is never top-level state, but if it is
             classified mutable, capturing it ships unsynchronised
             state to a worker domain: the escape-capture rule. *)
          match lid with
          | Longident.Lident n when Syntax.bound ctx.scope n -> (
              match local_class ctx n with
              | Mut when not (Hashtbl.mem seen_escape n) ->
                  Hashtbl.replace seen_escape n ();
                  emit ctx ~loc ~rule:"escape-capture"
                    ~blessed:(waived_at ctx loc Syntax.escape_bless_token)
                    (Printf.sprintf
                       "local mutable value %S is captured by a closure \
                        passed to %s and escapes to a worker domain; make it \
                        domain-local (allocate inside the closure), switch \
                        to Atomic.t, or bless the capture with [@th.allow \
                        \"domain_shared <why it is safe>\"]"
                       n callee)
              | Mut | Safe | Unknown -> ())
          | _ ->
              List.iter
                (fun key ->
                  match Callgraph.global_info ctx.db key with
                  | Some (_, blessed) -> report loc key ~via:None ~blessed
                  | None ->
                      List.iter
                        (fun g ->
                          report loc g ~via:(Some key) ~blessed:(blessed_of g))
                        (Callgraph.def_effects ctx.db key))
                (Callgraph.resolve ctx.db ~cur_lib:ctx.lib ~cur_mod:ctx.modname
                   lid)))
    args

(* ------------------------------------------------------------------ *)
(* Main per-file pass                                                  *)

let classify_rhs ctx e =
  if Callgraph.is_domain_safe_init e then Safe
  else if Callgraph.is_mutable_init ctx.db ~lib:ctx.lib ~modname:ctx.modname e
  then Mut
  else Unknown

let run_structure ctx str =
  let pre e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident ctx txt e.pexp_loc
    | Pexp_apply (fn, args) -> (
        (match fn.pexp_desc with
        | Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }
          -> (
            match args with
            | [ (_, a); (_, b) ] ->
                if is_floaty a || is_floaty b then
                  emit ctx ~loc:e.pexp_loc ~rule:"float-equality"
                    (Printf.sprintf
                       "(%s) on floating-point operands; compare with an \
                        epsilon or Float.compare's total order"
                       op)
                else if is_composite_literal a || is_composite_literal b then
                  emit ctx ~loc:e.pexp_loc ~rule:"poly-compare"
                    (Printf.sprintf
                       "structural (%s) against a composite literal; use a \
                        typed equality"
                       op)
            | _ -> ())
        | _ -> ());
        match Syntax.worker_sink fn with
        | Some callee -> check_pmap_site ctx callee args
        | None -> ())
    | Pexp_function cases | Pexp_match (_, cases) -> check_catch_all ctx cases
    | _ -> ()
  in
  let it =
    Syntax.scoped_iterator ctx.scope ~classify:(classify_rhs ctx) ~other:Unknown
      ~pre
  in
  it.structure it str

let analyze ?rules sources =
  let enabled r =
    String.equal r parse_error_rule
    || match rules with None -> true | Some l -> List.mem r l
  in
  let db = Callgraph.build sources in
  let findings = ref [] and waived = ref [] in
  List.iter
    (fun (s : Source.t) ->
      match s.ast with
      | Source.Signature _ ->
          (* Interfaces carry no expressions; every current rule is about
             runtime behaviour, so a parse is all they need. *)
          ()
      | Source.Structure str ->
          let module_defs =
            List.fold_left
              (fun acc item ->
                match item.pstr_desc with
                | Pstr_value (_, vbs) ->
                    List.fold_left
                      (fun acc vb ->
                        List.fold_left
                          (fun acc n -> SS.add n acc)
                          acc
                          (Syntax.pat_vars vb.pvb_pat))
                      acc vbs
                | _ -> acc)
              SS.empty str
          in
          let ctx =
            {
              file = s.file;
              modname = s.modname;
              lib = s.library;
              enabled;
              module_defs;
              waivers = waiver_spans s str;
              scope = Syntax.scope ();
              db;
              findings = [];
              waived = [];
            }
          in
          run_structure ctx str;
          findings := ctx.findings @ !findings;
          waived := ctx.waived @ !waived)
    sources;
  {
    findings = List.sort Finding.compare !findings;
    waived = List.sort Finding.compare !waived;
  }

let analyze_files ?rules files =
  let parsed, errors =
    List.fold_left
      (fun (ok, errs) file ->
        match Source.parse_file file with
        | Ok s -> (s :: ok, errs)
        | Error msg ->
            ( ok,
              {
                Finding.file;
                line = 1;
                col = 0;
                rule = parse_error_rule;
                severity = Finding.Error;
                message = msg;
              }
              :: errs ))
      ([], []) files
  in
  let r = analyze ?rules (List.rev parsed) in
  { r with findings = List.sort Finding.compare (errors @ r.findings) }

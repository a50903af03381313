(* Atomic-protocol checker: a per-module protocol analysis over
   Atomic.t usage.

   The hand-rolled atomics in lib/exec (the Chase-Lev deque, the
   scheduler's batch counters) follow publication protocols that the
   type system cannot see: the deque's [top] index must only move
   forward via CAS once thieves are active, the scheduler's counters
   are only [Atomic.set] while workers are quiesced. This pass makes
   those protocols checkable:

   - every Atomic.t declaration (record field of type [_ Atomic.t], or
     top-level [let x = Atomic.make _]) must carry a role annotation
     [[@th.atomic "role"]] stating its protocol in prose
     (atomic-missing-role);
   - a plain [Atomic.set] on a location that is elsewhere operated on
     by CAS-class primitives (compare_and_set / fetch_and_add / incr /
     decr / exchange) can overwrite a concurrent RMW and is flagged
     (atomic-plain-write);
   - a plain [Atomic.get] of a CAS-contended location in a definition
     that performs no CAS on it is a racy snapshot and is flagged
     (atomic-plain-read) — reads that feed a CAS in the same
     definition, the retry-loop idiom, are the protocol working as
     intended and stay silent;
   - an [Atomic.get] whose result guards an [Atomic.set] to the same
     location with no interposing CAS is a check-then-act window
     (atomic-check-then-act): the state can change between the read
     and the write, which is what [compare_and_set] exists to close.

   Locations are identified syntactically and per module: [t.top]
   anywhere in a module is the location [".top"], a bare identifier is
   its name. Functor-parameter atomics are recognised by usage: any
   module prefix that performs a CAS-class operation somewhere in the
   file (e.g. the [A] of [Deque.Make (A : Atomic_intf.S)]) is treated
   as an atomics module alongside [Atomic] itself. *)

open Parsetree
module SS = Syntax.SS

type op_kind = Read | Write | Cas | Rmw

let op_kind_of_name = function
  | "get" -> Some Read
  | "set" -> Some Write
  | "compare_and_set" -> Some Cas
  | "fetch_and_add" | "exchange" | "incr" | "decr" -> Some Rmw
  | _ -> None

let atomic_op_names =
  SS.of_list
    [ "get"; "set"; "compare_and_set"; "fetch_and_add"; "exchange"; "incr"; "decr" ]

let cas_class_names = SS.of_list [ "compare_and_set"; "fetch_and_add"; "exchange"; "incr"; "decr" ]

(* Location identity of an atomic value expression, if recognisable:
   field access -> ".field", identifier -> its unqualified name. *)
let loc_id_of_expr e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_field (_, { txt; _ }) -> (
        match List.rev (Syntax.flatten_lid txt) with
        | f :: _ -> Some ("." ^ f)
        | [] -> None)
    | Pexp_ident { txt; _ } -> (
        match List.rev (Syntax.flatten_lid txt) with
        | n :: _ -> Some n
        | [] -> None)
    | Pexp_constraint (e, _) | Pexp_open (_, e) -> go e
    | _ -> None
  in
  go e

(* ------------------------------------------------------------------ *)
(* Pass A: which module prefixes are atomics modules in this file?     *)

let atomic_modules str =
  let mods = ref (SS.singleton "Atomic") in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match Syntax.last2 (Syntax.flatten_lid txt) with
              | Some (m, fn) when SS.mem fn cas_class_names ->
                  mods := SS.add m !mods
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  !mods

(* ------------------------------------------------------------------ *)
(* Pass B: collect every atomic op with location identity              *)

type op = { kind : op_kind; locid : string; op_loc : Location.t }

(* Pre-order walk of an expression subtree, [f] at every node. *)
let iter_exprs f root =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it root

(* All atomic ops in an expression subtree, in pre-order. *)
let ops_in ~mods root =
  let acc = ref [] in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
          match Syntax.last2 (Syntax.flatten_lid txt) with
          | Some (m, fn) when SS.mem m mods && SS.mem fn atomic_op_names -> (
              match (op_kind_of_name fn, args) with
              | Some kind, (_, target) :: _ -> (
                  match loc_id_of_expr target with
                  | Some locid ->
                      acc := { kind; locid; op_loc = e.pexp_loc } :: !acc
                  | None -> ())
              | _ -> ())
          | _ -> ())
      | _ -> ())
    root;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Check-then-act: get of L guards a set of L with no interposing CAS  *)

let check_then_act ~mods body k =
  (* Variables bound to [Atomic.get L] results, per walk. *)
  let bound : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let get_locid e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, tgt) :: _) -> (
        match Syntax.last2 (Syntax.flatten_lid txt) with
        | Some (m, "get") when SS.mem m mods -> loc_id_of_expr tgt
        | _ -> None)
    | _ -> None
  in
  (* Does [e] mention a read of [l]: a direct get, or a variable bound
     to one, anywhere in the subtree? *)
  let mentions_read l e =
    let hit = ref false in
    let is_read e' =
      (match get_locid e' with Some l' -> String.equal l l' | None -> false)
      ||
      match e'.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } -> (
          match Hashtbl.find_opt bound n with
          | Some l' -> String.equal l l'
          | None -> false)
      | _ -> false
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e' ->
            if not !hit then
              if is_read e' then hit := true
              else Ast_iterator.default_iterator.expr it e');
      }
    in
    if is_read e then true
    else (
      it.expr it e;
      !hit)
  in
  (* A write in [branch] guarded by a read of its location in [cond],
     with no CAS-class op on that location in the branch. *)
  let guarded_writes cond branch =
    let ops = ops_in ~mods branch in
    List.iter
      (fun o ->
        if
          o.kind = Write
          && mentions_read o.locid cond
          && not
               (List.exists
                  (fun o' ->
                    (o'.kind = Cas || o'.kind = Rmw)
                    && String.equal o'.locid o.locid)
                  ops)
        then k o)
      ops
  in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              match (vb.pvb_pat.ppat_desc, get_locid vb.pvb_expr) with
              | Ppat_var { txt; _ }, Some l -> Hashtbl.replace bound txt l
              | _ -> ())
            vbs
      | Pexp_ifthenelse (cond, thn, els) ->
          List.iter (guarded_writes cond) (thn :: Option.to_list els)
      | Pexp_while (cond, body) -> guarded_writes cond body
      | _ -> ())
    body

(* ------------------------------------------------------------------ *)
(* Declarations that need [@th.atomic] roles                           *)

type decl = {
  decl_name : string;  (* locid form: ".field" or "name" *)
  decl_loc : Location.t;
  decl_role : string option;
}

let is_atomic_type ~mods t =
  let rec go t =
    match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, args) -> (
        (match List.rev (Syntax.flatten_lid txt) with
        | "t" :: m :: _ -> SS.mem m mods
        | _ -> false)
        || List.exists go args)
    | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> go t
    | _ -> false
  in
  go t

let decls ~mods str =
  let out = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) ->
          List.iter
            (fun td ->
              match td.ptype_kind with
              | Ptype_record labels ->
                  List.iter
                    (fun l ->
                      if is_atomic_type ~mods l.pld_type then
                        out :=
                          {
                            decl_name = "." ^ l.pld_name.txt;
                            decl_loc = l.pld_loc;
                            decl_role = Syntax.attr_atomic_role l.pld_attributes;
                          }
                          :: !out)
                    labels
              | _ -> ())
            tds
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> (
                  let rec is_make e =
                    match e.pexp_desc with
                    | Pexp_apply
                        ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, _) -> (
                        match Syntax.last2 (Syntax.flatten_lid f) with
                        | Some (m, "make") -> SS.mem m mods
                        | _ -> false)
                    | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_make e
                    | _ -> false
                  in
                  match is_make vb.pvb_expr with
                  | true ->
                      out :=
                        {
                          decl_name = txt;
                          decl_loc = vb.pvb_loc;
                          decl_role =
                            (match Syntax.attr_atomic_role vb.pvb_attributes with
                            | Some r -> Some r
                            | None ->
                                Syntax.attr_atomic_role
                                  vb.pvb_expr.pexp_attributes);
                        }
                        :: !out
                  | false -> ())
              | _ -> ())
            vbs
      | _ -> ())
    str;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Scopes: the file's top level plus every nested module/functor body. *)
(* Location identity is per scope, so [Deque.Make]'s [.top] and a      *)
(* sibling module's [.top] never merge. A functor parameter whose      *)
(* module type names [Atomic_intf] is an atomics module inside that    *)
(* body even if the body never CASes (the broken-variant case).        *)

let mty_is_atomics (mty : module_type) =
  match mty.pmty_desc with
  | Pmty_ident { txt; _ } ->
      List.exists (String.equal "Atomic_intf") (Syntax.flatten_lid txt)
  | _ -> false

let rec scopes ~extra_mods items =
  (extra_mods, items)
  :: List.concat_map
       (fun item ->
         match item.pstr_desc with
         | Pstr_module mb -> mod_scopes ~extra_mods mb.pmb_expr
         | Pstr_recmodule mbs ->
             List.concat_map (fun mb -> mod_scopes ~extra_mods mb.pmb_expr) mbs
         | _ -> [])
       items

and mod_scopes ~extra_mods me =
  match me.pmod_desc with
  | Pmod_structure s -> scopes ~extra_mods s
  | Pmod_functor (param, body) ->
      let extra_mods =
        match param with
        | Named ({ txt = Some a; _ }, mty) when mty_is_atomics mty ->
            SS.add a extra_mods
        | _ -> extra_mods
      in
      mod_scopes ~extra_mods body
  | Pmod_constraint (me, _) -> mod_scopes ~extra_mods me
  | _ -> []

let roles str =
  List.concat_map
    (fun (extra_mods, items) ->
      let mods = SS.union extra_mods (atomic_modules items) in
      List.filter_map
        (fun d -> Option.map (fun r -> (d.decl_name, r)) d.decl_role)
        (decls ~mods items))
    (scopes ~extra_mods:SS.empty str)

(* ------------------------------------------------------------------ *)
(* Whole-module analysis                                               *)

(* Top-level definition bodies. *)
let top_defs str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.map (fun vb -> vb.pvb_expr) vbs
      | _ -> [])
    str

let analyze_scope ~mods str =
  let per_def_ops =
    List.map (fun body -> (ops_in ~mods body, body)) (top_defs str)
  in
  let all_ops = List.concat_map fst per_def_ops in
  (* Per-location access classes across the whole module. *)
  let contended locid kinds =
    List.exists
      (fun o -> String.equal o.locid locid && List.mem o.kind kinds)
      all_ops
  in
  let role_of =
    let rs = roles str in
    fun locid ->
      match List.find_opt (fun (n, _) -> String.equal n locid) rs with
      | Some (_, r) -> Printf.sprintf " (role: %S)" r
      | None -> ""
  in
  let out = ref [] in
  let push loc rule message = out := { Finding.loc; rule; message } :: !out in
  (* Missing roles. *)
  List.iter
    (fun d ->
      if d.decl_role = None then
        push d.decl_loc "atomic-missing-role"
          (Printf.sprintf
             "Atomic.t declaration %S has no [@th.atomic \"role\"] \
              annotation; state its protocol (who writes it, how it is \
              published, e.g. \"top pointer, stolen via CAS\")"
             d.decl_name))
    (decls ~mods str);
  (* Plain writes to CAS/RMW-contended locations. *)
  List.iter
    (fun o ->
      if o.kind = Write && contended o.locid [ Cas; Rmw ] then
        push o.op_loc "atomic-plain-write"
          (Printf.sprintf
             "plain Atomic.set on %S%s, which is elsewhere updated by \
              CAS-class operations; a plain store can overwrite a concurrent \
              RMW — use compare_and_set, or waive with the protocol phase \
              that makes the store safe (e.g. workers quiesced)"
             o.locid (role_of o.locid)))
    all_ops;
  (* Plain reads of CAS-contended locations in defs with no CAS on them. *)
  List.iter
    (fun (ops, _) ->
      List.iter
        (fun o ->
          if
            o.kind = Read
            && contended o.locid [ Cas ]
            && not
                 (List.exists
                    (fun o' ->
                      o'.kind = Cas && String.equal o'.locid o.locid)
                    ops)
          then
            push o.op_loc "atomic-plain-read"
              (Printf.sprintf
                 "plain Atomic.get of %S%s, which other code claims via CAS; \
                  this definition performs no CAS on it, so the value is a \
                  racy snapshot — feed the read into a compare_and_set, or \
                  waive stating why staleness is acceptable"
                 o.locid (role_of o.locid)))
        ops)
    per_def_ops;
  (* Check-then-act windows. *)
  List.iter
    (fun (_, body) ->
      check_then_act ~mods body (fun o ->
          push o.op_loc "atomic-check-then-act"
            (Printf.sprintf
               "Atomic.get of %S%s guards this Atomic.set to the same \
                location with no interposing CAS: the location can change \
                between the read and the write — close the window with \
                compare_and_set"
               o.locid (role_of o.locid))))
    per_def_ops;
  List.rev !out

let analyze str =
  List.concat_map
    (fun (extra_mods, items) ->
      analyze_scope ~mods:(SS.union extra_mods (atomic_modules items)) items)
    (scopes ~extra_mods:SS.empty str)

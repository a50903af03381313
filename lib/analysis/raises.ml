(* Interprocedural raises-effect analysis.

   Every definition in the analyzed sources gets a summary: the set of
   typed exception constructors that may escape a call to it. Summaries
   are inferred from the bodies — syntactic [raise (C ...)] forms
   introduce a constructor, [try]/[match ... with exception] handlers
   subtract the constructors they catch (and re-raising the bound
   exception puts them back) — and propagate through the cross-library
   call graph to fixpoint, so an [Io_error] born three libraries down
   in [Io_retry.run] is visible at a [Block_manager.get] call site.

   The domain is deliberately the repo's own fault vocabulary: only
   exceptions the analyzed sources raise by constructor name are
   tracked. Stdlib helpers ([failwith], [invalid_arg], [Not_found]
   from containers) model programmer errors, not the fault protocol,
   and contribute nothing — tracking them would drown the barrier
   rules in assertion noise.

   A [[@th.raises "Exn ..."]] declaration on a binding fixes the
   summary callers see: inference never widens a declared summary
   (qcheck-tested), and the fault-barrier rule fires when the body's
   inferred set exceeds the declaration.

   Three rule families consume the summaries:
   - fault-barrier: a definition must not leak a tracked exception it
     neither handles nor declares; [Out_of_h2_space] must never escape
     [Ps_gc]'s move passes, declared or not.
   - cell-boundary: thunks handed to a worker-domain sink
     ([Syntax.worker_sinks]) may only let
     [Out_of_memory]/[Invalid_heap_state] escape — the scheduler's
     documented re-raise set.
   - pure-render: [Plan.seal ~render] callbacks must be exception-free
     and effect-free (no mutable globals reachable). *)

open Parsetree
module SS = Syntax.SS
module SM = Map.Make (String)

(* Where a constructor entered a summary: the first raise site or
   callee occurrence seen, for actionable finding messages. *)
type witness = { wloc : Location.t; via : Callgraph.key option }

type t = {
  db : Callgraph.t;
  (* what callers observe: the declaration when one exists, the
     inferred set otherwise *)
  published : (Callgraph.key, SS.t) Hashtbl.t;
  (* what the body can actually raise, with witnesses *)
  inferred : (Callgraph.key, witness SM.t) Hashtbl.t;
  declared : (Callgraph.key, SS.t) Hashtbl.t;
  (* conditional contracts: (def, ctor) -> labelled-argument guard.
     [Device.read]'s Io_error only escapes applications that pass
     [~checked] as something other than a literal [false]. *)
  guards : (Callgraph.key * string, string) Hashtbl.t;
}

(* The scheduler re-raises the first cell failure after the batch
   drains; Out_of_memory and Invalid_heap_state are its documented
   vocabulary — everything else crossing a cell boundary is a bug. *)
let cell_allowed = SS.of_list [ "Out_of_memory"; "Invalid_heap_state" ]

let merge a b = SM.union (fun _ w _ -> Some w) a b

let domain m = SM.fold (fun c _ acc -> SS.add c acc) m SS.empty

(* ------------------------------------------------------------------ *)
(* Handler patterns: which exception constructors does a case catch?   *)

type handler_info = {
  ctors : SS.t;  (** named constructors the pattern matches *)
  catch_all : bool;  (** [_] or a variable: catches everything *)
  bound : string option;  (** variable bound to the caught exception *)
}

let rec handler_of_pat p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) ->
      let ctors =
        match List.rev (Syntax.flatten_lid txt) with
        | n :: _ -> SS.singleton n
        | [] -> SS.empty
      in
      { ctors; catch_all = false; bound = None }
  | Ppat_any -> { ctors = SS.empty; catch_all = true; bound = None }
  | Ppat_var { txt; _ } ->
      { ctors = SS.empty; catch_all = true; bound = Some txt }
  | Ppat_alias (inner, { txt; _ }) ->
      { (handler_of_pat inner) with bound = Some txt }
  | Ppat_or (a, b) ->
      let ha = handler_of_pat a and hb = handler_of_pat b in
      {
        ctors = SS.union ha.ctors hb.ctors;
        catch_all = ha.catch_all || hb.catch_all;
        bound = (match ha.bound with Some _ as v -> v | None -> hb.bound);
      }
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_exception p ->
      handler_of_pat p
  | _ -> { ctors = SS.empty; catch_all = false; bound = None }

let rec pat_has_exception p =
  match p.ppat_desc with
  | Ppat_exception _ -> true
  | Ppat_or (a, b) -> pat_has_exception a || pat_has_exception b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
      pat_has_exception p
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

type env = {
  t : t;
  cur_lib : string;
  cur_mod : string;
  shadow : unit Syntax.scope;
  (* let-bound lambdas: raising is latent, attributed at occurrences *)
  latent : SS.t Syntax.scope;
  (* handler-bound exception variables: what a re-raise reintroduces *)
  reraise : SS.t Syntax.scope;
}

let env t ~lib ~modname =
  {
    t;
    cur_lib = lib;
    cur_mod = modname;
    shadow = Syntax.scope ();
    latent = Syntax.scope ();
    reraise = Syntax.scope ();
  }

let with_vars env vars k =
  Syntax.with_bindings env.shadow (List.map (fun n -> (n, ())) vars) k

let singleton ctor loc = SM.singleton ctor { wloc = loc; via = None }

let published env key =
  Option.value ~default:SS.empty (Hashtbl.find_opt env.t.published key)

(* Does an application's argument list activate a conditional
   contract? Omitting the guard label takes the default (unguarded)
   path; passing a literal [false] explicitly declines it; anything
   else — literal [true] or a forwarded variable — activates it. *)
let arg_passes_guard args label =
  match
    List.find_opt
      (fun (l, _) ->
        match l with
        | Asttypes.Labelled n | Asttypes.Optional n -> String.equal n label
        | Asttypes.Nolabel -> false)
      args
  with
  | None -> false
  | Some (_, e) -> (
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) -> false
      | _ -> true)

(* The contribution of referring to [lid] at [loc]: the published
   summary of whatever it resolves to, witnessed at the occurrence.
   [apply_args] is the argument list when the reference is the head
   of an application — the only position where conditional contracts
   can be discharged; a bare occurrence keeps the full set. *)
let ident_contrib ?apply_args env lid (loc : Location.t) =
  match lid with
  | Longident.Lident n when Syntax.bound env.shadow n -> (
      match Syntax.innermost env.latent n with
      | Some latent ->
          SS.fold
            (fun c acc -> SM.add c { wloc = loc; via = None } acc)
            latent SM.empty
      | None -> SM.empty)
  | _ ->
      List.fold_left
        (fun acc key ->
          SS.fold
            (fun c acc ->
              let active =
                match (Hashtbl.find_opt env.t.guards (key, c), apply_args) with
                | Some label, Some args -> arg_passes_guard args label
                | Some _, None | None, _ -> true
              in
              if active then SM.add c { wloc = loc; via = Some key } acc
              else acc)
            (published env key) acc)
        SM.empty
        (Callgraph.resolve env.t.db ~cur_lib:env.cur_lib ~cur_mod:env.cur_mod
           lid)

let is_raise env fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Syntax.flatten_lid txt with
      | [ ("raise" | "raise_notrace") ] ->
          not
            (Syntax.bound env.shadow "raise"
            || Syntax.bound env.shadow "raise_notrace")
      | [ "Stdlib"; ("raise" | "raise_notrace") ] -> true
      | _ -> false)
  | _ -> false

let render_sink fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Syntax.last2 (Syntax.flatten_lid txt) with
      | Some ("Plan", "seal") -> Some "Plan.seal"
      | _ -> None)
  | _ -> None

(* Thunks handed to a worker sink run later, on a worker domain, and a
   render runs after the batch — their raises are not the enclosing
   definition's to answer for (the cell-boundary and pure-render rules
   audit them instead), so [eval] skips function-valued arguments at
   these applications. *)
let deferral_sink fn =
  match Syntax.worker_sink fn with Some _ as s -> s | None -> render_sink fn

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* Subtract what the handlers catch; a handler RHS re-raising the bound
   exception reintroduces the caught set (handled by the caller via
   [reraise] bindings). Guarded cases may decline to match, so they
   subtract nothing. *)
let filter_handled raised cases ~only_exception_cases =
  List.fold_left
    (fun acc c ->
      let relevant =
        (not only_exception_cases) || pat_has_exception c.pc_lhs
      in
      if (not relevant) || c.pc_guard <> None then acc
      else
        let h = handler_of_pat c.pc_lhs in
        if h.catch_all then SM.empty
        else SS.fold SM.remove h.ctors acc)
    raised cases

let rec eval env e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ident_contrib env txt e.pexp_loc
  | Pexp_apply (fn, args) when is_raise env fn -> (
      match args with
      | (_, arg) :: _ -> (
          match arg.pexp_desc with
          | Pexp_construct ({ txt; _ }, payload) -> (
              let payload_raises =
                match payload with Some p -> eval env p | None -> SM.empty
              in
              match List.rev (Syntax.flatten_lid txt) with
              | ctor :: _ ->
                  merge (singleton ctor arg.pexp_loc) payload_raises
              | [] -> payload_raises)
          | Pexp_ident { txt = Longident.Lident n; _ }
            when Syntax.bound env.shadow n -> (
              (* [raise e] where [e] was bound by a handler: the
                 original set flows onward. *)
              match Syntax.innermost env.reraise n with
              | Some set ->
                  SS.fold
                    (fun c acc ->
                      SM.add c { wloc = e.pexp_loc; via = None } acc)
                    set SM.empty
              | None -> SM.empty)
          | _ -> eval env arg)
      | [] -> SM.empty)
  | Pexp_apply (fn, args) -> (
      let fn_contrib () =
        match fn.pexp_desc with
        | Pexp_ident { txt; _ } ->
            ident_contrib ~apply_args:args env txt fn.pexp_loc
        | _ -> eval env fn
      in
      match deferral_sink fn with
      | Some _ ->
          (* Non-function arguments still evaluate here and now. *)
          List.fold_left
            (fun acc (_, a) ->
              if is_function a then acc else merge acc (eval env a))
            (fn_contrib ()) args
      | None ->
          List.fold_left
            (fun acc (_, a) -> merge acc (eval env a))
            (fn_contrib ()) args)
  | Pexp_fun (_, dflt, pat, body) ->
      let d = match dflt with Some d -> eval env d | None -> SM.empty in
      merge d
        (with_vars env (Syntax.pat_vars pat) (fun () -> eval env body))
  | Pexp_function cases -> eval_cases env cases ~reraise:None
  | Pexp_try (body, cases) ->
      let raised = eval env body in
      let survives = filter_handled raised cases ~only_exception_cases:false in
      merge survives
        (eval_cases env cases ~reraise:(Some (domain raised)))
  | Pexp_match (scrut, cases) ->
      let raised = eval env scrut in
      let survives = filter_handled raised cases ~only_exception_cases:true in
      let handler_reraise =
        if List.exists (fun c -> pat_has_exception c.pc_lhs) cases then
          Some (domain raised)
        else None
      in
      merge survives (eval_cases env cases ~reraise:handler_reraise)
  | Pexp_let (rf, vbs, body) -> eval_let env rf vbs body
  | Pexp_letop _ ->
      (* Binding operators thread effects opaquely; fall through to the
         structural walk below. *)
      eval_children env e
  | _ -> eval_children env e

and eval_cases env cases ~reraise =
  List.fold_left
    (fun acc c ->
      let h = handler_of_pat c.pc_lhs in
      let vars = Syntax.pat_vars c.pc_lhs in
      let contribution =
        with_vars env vars (fun () ->
            let bind_reraise k =
              match (h.bound, reraise) with
              | Some v, Some full ->
                  let set = if h.catch_all then full else h.ctors in
                  Syntax.with_bindings env.reraise [ (v, set) ] k
              | _ -> k ()
            in
            bind_reraise (fun () ->
                let g =
                  match c.pc_guard with
                  | Some g -> eval env g
                  | None -> SM.empty
                in
                merge g (eval env c.pc_rhs)))
      in
      merge acc contribution)
    SM.empty cases

and eval_let env rf vbs body =
  let lambda_vb vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } when is_function vb.pvb_expr -> Some txt
    | _ -> None
  in
  let lambdas = List.filter_map lambda_vb vbs in
  let plain_vars =
    List.concat_map
      (fun vb ->
        match lambda_vb vb with
        | Some _ -> []
        | None -> Syntax.pat_vars vb.pvb_pat)
      vbs
  in
  (* Latent sets for let-bound lambdas: the lambda's raises belong to
     its occurrences (inside whatever [try] encloses them), not to the
     [let] itself. Recursive groups iterate a small local fixpoint. *)
  let eval_lambda_bodies () =
    List.filter_map
      (fun vb ->
        match lambda_vb vb with
        | Some n -> Some (n, domain (eval env vb.pvb_expr))
        | None -> None)
      vbs
  in
  let eager, latents =
    match rf with
    | Nonrecursive ->
        let eager =
          List.fold_left
            (fun acc vb ->
              match lambda_vb vb with
              | Some _ -> acc
              | None -> merge acc (eval env vb.pvb_expr))
            SM.empty vbs
        in
        (eager, eval_lambda_bodies ())
    | Recursive ->
        with_vars env (lambdas @ plain_vars) (fun () ->
            List.iter (fun n -> Syntax.push env.latent n SS.empty) lambdas;
            let rec iterate sets budget =
              List.iter
                (fun (n, s) ->
                  Syntax.pop env.latent n;
                  Syntax.push env.latent n s)
                sets;
              let next = eval_lambda_bodies () in
              if budget = 0 || List.equal (fun (a, sa) (b, sb) ->
                  String.equal a b && SS.equal sa sb) next sets
              then next
              else iterate next (budget - 1)
            in
            let latents = iterate (List.map (fun n -> (n, SS.empty)) lambdas) 8 in
            let eager =
              List.fold_left
                (fun acc vb ->
                  match lambda_vb vb with
                  | Some _ -> acc
                  | None -> merge acc (eval env vb.pvb_expr))
                SM.empty vbs
            in
            List.iter (fun n -> Syntax.pop env.latent n) lambdas;
            (eager, latents))
  in
  let body_raises =
    with_vars env (lambdas @ plain_vars) (fun () ->
        Syntax.with_bindings env.latent latents (fun () -> eval env body))
  in
  merge eager body_raises

and eval_children env e =
  let acc = ref SM.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> acc := merge !acc (eval env child));
    }
  in
  Ast_iterator.default_iterator.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* Whole-project fixpoint                                              *)

let build db (_sources : Source.t list) =
  let t =
    {
      db;
      published = Hashtbl.create 256;
      inferred = Hashtbl.create 256;
      declared = Hashtbl.create 64;
      guards = Hashtbl.create 16;
    }
  in
  Callgraph.fold_defs db ~init:() ~f:(fun () key _ attrs ->
      match Syntax.attr_raises attrs with
      | Some decl ->
          let names =
            List.fold_left (fun acc (c, _) -> SS.add c acc) SS.empty decl
          in
          Hashtbl.replace t.declared key names;
          Hashtbl.replace t.published key names;
          List.iter
            (fun (c, guard) ->
              match guard with
              | Some label -> Hashtbl.replace t.guards (key, c) label
              | None -> ())
            decl
      | None -> ());
  let eval_def key body =
    eval (env t ~lib:key.Callgraph.lib ~modname:key.Callgraph.modname) body
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Callgraph.fold_defs db ~init:() ~f:(fun () key body _ ->
        let inferred = eval_def key body in
        Hashtbl.replace t.inferred key inferred;
        let next =
          match Hashtbl.find_opt t.declared key with
          | Some decl -> decl
          | None -> domain inferred
        in
        let cur =
          Option.value ~default:SS.empty (Hashtbl.find_opt t.published key)
        in
        if not (SS.equal next cur) then begin
          Hashtbl.replace t.published key next;
          changed := true
        end)
  done;
  t

let summary t key =
  SS.elements
    (Option.value ~default:SS.empty (Hashtbl.find_opt t.published key))

let of_expr t ~lib ~modname e =
  SS.elements (domain (eval (env t ~lib ~modname) e))

(* ------------------------------------------------------------------ *)
(* Rule checks over one file                                           *)

let describe_witness w =
  match w.via with
  | None -> ""
  | Some k ->
      Printf.sprintf " (via %s)" (Callgraph.key_to_string k)

let fault_barrier_message ~def ctor w =
  match ctor with
  | "Io_error" ->
      Printf.sprintf
        "Io_error may escape %s%s; device faults must be absorbed by an \
         Io_retry episode or an explicit handler — wrap the call, or \
         declare the contract with [@@th.raises \"Io_error\"] so callers \
         inherit the obligation"
        def (describe_witness w)
  | "Out_of_h2_space" ->
      Printf.sprintf
        "Out_of_h2_space may escape %s%s; H2 exhaustion must degrade \
         gracefully (defer the object, fall back to H1), not propagate — \
         handle it at the move pass, or declare [@@th.raises \
         \"Out_of_h2_space\"] outside Ps_gc"
        def (describe_witness w)
  | _ ->
      Printf.sprintf
        "%s may escape %s%s, which neither handles it nor declares it; \
         add a handler or state the contract with [@@th.raises %S]"
        ctor def (describe_witness w) ctor

(* Fault exceptions whose undeclared escape is a fault-barrier finding.
   Out_of_memory/Invalid_heap_state are ambient by design — the
   scheduler re-raises them and every driver's top level owns them —
   so they are audited at cell and render boundaries instead. *)
let barrier_checked ctor = not (SS.mem ctor cell_allowed)

(* Fault exceptions escaping module-initialisation code at [loc]: a
   [let () = ...] or destructuring binding, or a top-level expression.
   Nothing above that code can handle them. *)
let init_escapes t ~lib ~modname ~loc e acc =
  List.fold_left
    (fun acc ctor ->
      if barrier_checked ctor then
        {
          Finding.loc;
          rule = "fault-barrier";
          message =
            Printf.sprintf
              "%s may escape module initialisation of %s; nothing above \
               this code can handle it — absorb it here"
              ctor modname;
        }
        :: acc
      else acc)
    acc
    (of_expr t ~lib ~modname e)

let check_def t ~lib acc ~modname ~prefix vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } ->
      let name =
        match prefix with [] -> txt | _ -> String.concat "." (prefix @ [ txt ])
      in
      let key = { Callgraph.lib; modname; name } in
      let inferred =
        Option.value ~default:SM.empty (Hashtbl.find_opt t.inferred key)
      in
      let declared =
        Option.value ~default:SS.empty (Hashtbl.find_opt t.declared key)
      in
      SM.fold
        (fun ctor w acc ->
          let undeclared = not (SS.mem ctor declared) in
          (* Out_of_h2_space must not cross Ps_gc's boundary even when
             declared: the move passes own the degradation contract. *)
          let h2_escape_from_psgc =
            String.equal ctor "Out_of_h2_space" && String.equal modname "Ps_gc"
          in
          if barrier_checked ctor && (undeclared || h2_escape_from_psgc) then
            {
              Finding.loc = w.wloc;
              rule = "fault-barrier";
              message =
                fault_barrier_message
                  ~def:(Printf.sprintf "%s.%s" modname name)
                  ctor w;
            }
            :: acc
          else acc)
        inferred acc
  | _ ->
      (* Module-initialisation code ([let () = ...], destructuring):
         anything escaping here aborts at load/startup time. *)
      init_escapes t ~lib ~modname ~loc:vb.pvb_loc vb.pvb_expr acc

let check_file t (s : Source.t) =
  match s.ast with
  | Source.Signature _ -> []
  | Source.Structure str ->
      let acc = ref [] in
      let push loc rule message =
        acc := { Finding.loc; rule; message } :: !acc
      in
      let env = env t ~lib:s.library ~modname:s.modname in
      let check_cell_site callee args =
        List.iter
          (fun (_, arg) ->
            SM.iter
              (fun ctor w ->
                if not (SS.mem ctor cell_allowed) then
                  push w.wloc "cell-boundary"
                    (Printf.sprintf
                       "%s%s can escape a thunk handed to %s; the scheduler \
                        only re-raises Out_of_memory/Invalid_heap_state \
                        across the batch — handle %s inside the cell and \
                        fold it into the result value"
                       ctor (describe_witness w) callee ctor))
              (eval env arg))
          args
      in
      let check_render_site args =
        List.iter
          (fun (label, arg) ->
            let is_render =
              match label with
              | Asttypes.Labelled "render" | Asttypes.Optional "render" ->
                  true
              | _ -> false
            in
            if is_render then begin
              SM.iter
                (fun ctor w ->
                  push w.wloc "pure-render"
                    (Printf.sprintf
                       "%s%s can escape a Plan render function; renders \
                        must be exception-free — resolve failures in the \
                        cells and render the resolved values"
                       ctor (describe_witness w)))
                (eval env arg);
              (* Effect-freedom: no mutable global reachable from the
                 render, directly or through calls. *)
              Syntax.iter_unshadowed_idents arg ~f:(fun lid loc ->
                  List.iter
                    (fun key ->
                      let globals =
                        if Option.is_some (Callgraph.global_info t.db key)
                        then [ (key, None) ]
                        else
                          List.map
                            (fun g -> (g, Some key))
                            (Callgraph.def_effects t.db key)
                      in
                      List.iter
                        (fun (g, via) ->
                          let via_s =
                            match via with
                            | None -> ""
                            | Some k ->
                                Printf.sprintf " (via %s)"
                                  (Callgraph.key_to_string k)
                          in
                          push loc "pure-render"
                            (Printf.sprintf
                               "mutable global %s is reachable from a Plan \
                                render function%s; renders must be \
                                effect-free — accumulate on the serial path \
                                after the batch, then render the result"
                               (Callgraph.key_to_string g) via_s))
                        globals)
                    (Callgraph.resolve t.db ~cur_lib:s.library
                       ~cur_mod:s.modname lid))
            end)
          args
      in
      (* Value bindings get the def-level fault-barrier check;
         applications get the sink checks, evaluated under the
         enclosing locals so a sink argument's reference to one is not
         resolved as a top-level definition of the same name. *)
      let sinks =
        Syntax.scoped_iterator env.shadow ~classify:ignore ~other:()
          ~pre:(fun e ->
            match e.pexp_desc with
            | Pexp_apply (fn, args) -> (
                (match Syntax.worker_sink fn with
                | Some callee -> check_cell_site callee args
                | None -> ());
                match render_sink fn with
                | Some _ -> check_render_site args
                | None -> ())
            | _ -> ())
      in
      let rec walk_items ~prefix ~modname items =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    acc :=
                      check_def t ~lib:s.library !acc ~modname ~prefix vb;
                    sinks.expr sinks vb.pvb_expr)
                  vbs
            | Pstr_module mb -> walk_mod ~prefix ~modname mb
            | Pstr_recmodule mbs ->
                List.iter (walk_mod ~prefix ~modname) mbs
            | Pstr_eval (e, _) ->
                acc :=
                  init_escapes t ~lib:s.library ~modname ~loc:e.pexp_loc e !acc;
                sinks.expr sinks e
            | _ -> ())
          items
      and walk_mod ~prefix ~modname mb =
        match mb.pmb_name.txt with
        | None -> ()
        | Some m ->
            let rec body me =
              match me.pmod_desc with
              | Pmod_structure items ->
                  walk_items ~prefix:(prefix @ [ m ]) ~modname items
              | Pmod_constraint (me, _) -> body me
              | _ -> ()
            in
            body mb.pmb_expr
      in
      walk_items ~prefix:[] ~modname:s.modname str;
      List.rev !acc

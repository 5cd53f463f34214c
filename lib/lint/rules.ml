(* The shipped rules.

   LINT001 missed-reuse     escape+sharing license in-place reuse but
                            Optimize.Reuse produced no primed version
   LINT002 heap-doomed      every call of the definition may return a
                            result sharing an argument spine, so no
                            storage optimization can ever target it
   LINT003 invariance       Theorem-1 self-audit: s_i - k_i must agree
                            across the monomorphic instances Nml.Mono
                            demands (a solver-soundness cross-check)
   LINT004 dead-spine       a parameter with global escape <0,0> whose
                            spine-liveness verdict is dead: it occurs
                            in its body but no cell is ever needed
   LINT005 unused-binding   classic structural rule
   LINT006 unreachable      branch under a constant condition
   LINT007 wasted-spine     a fresh multi-cell spine is passed to a
                            parameter that never needs it (spine-liveness)
   LINT008 shared-mutation  a destructive reuse candidate's consumed
                            parameter is spine-shared per the sharing
                            analysis: escape and sharing disagree

   Every rule anchors its finding at a parsed source span (a parameter
   binder, a definition body, a dead branch) so suppression comments
   and SARIF regions are meaningful. *)

module A = Nml.Ast
module An = Escape.Analysis
module B = Escape.Besc
module D = Nml.Diagnostic
module Fix = Escape.Fixpoint
module Sh = Escape.Sharing
module Ty = Nml.Ty

(* ---- shared syntactic helpers ---------------------------------------------- *)

let strip_lams rhs =
  let rec go acc = function
    | A.Lam (l, x, b) -> go ((l, x) :: acc) b
    | body -> (List.rev acc, body)
  in
  go [] rhs

(* Binder location of the [i]-th (1-based) leading parameter; the body's
   own span when the walk runs out of lambdas. *)
let param_binder_loc rhs i =
  let rec walk j = function
    | A.Lam (l, _, b) -> if j = i then l else walk (j + 1) b
    | e -> A.loc e
  in
  walk 1 rhs

(* Whether the [i]-th (1-based) leading parameter occurs free in the
   rest of its definition. *)
let rec param_occurs rhs i =
  match rhs with
  | A.Lam (_, x, b) -> if i = 1 then List.mem x (A.free_vars b) else param_occurs b (i - 1)
  | _ -> false

let member_defs ctx members =
  List.filter (fun (n, _) -> List.mem n members) ctx.Rule.surface.Nml.Surface.defs

(* The underscore convention: [_acc] opts a binder out of the unused /
   dead-parameter rules. *)
let exempt x = String.length x > 0 && x.[0] = '_'

(* ---- LINT001: missed reuse -------------------------------------------------- *)

let missed_reuse ctx ~members =
  let defs = member_defs ctx members in
  if defs = [] then []
  else
    let t = Rule.solver ctx in
    let sub = { ctx.Rule.surface with Nml.Surface.defs = defs } in
    let annotated =
      List.map (fun c -> c.Optimize.Reuse.def) (Optimize.Reuse.candidates t sub)
    in
    List.filter_map
      (fun (name, rhs) ->
        if List.mem name annotated then None
        else
          let params, body = strip_lams rhs in
          let n = List.length params in
          if n = 0 then None
          else
            let inst = Fix.instance_ty t name in
            if Ty.params inst < n then None
            else
              let full = Ty.params inst in
              let args_unshared = List.map Ty.spines (Ty.arg_tys inst full) in
              let site_kind ty =
                match Ty.repr ty with
                | Ty.List _ ->
                    if Optimize.Liveness.cons_sites body <> [] then Some "cons"
                    else None
                | Ty.Tree _ ->
                    if Optimize.Liveness.node_sites body <> [] then Some "node"
                    else None
                | _ -> None
              in
              let candidate i ty =
                match site_kind ty with
                | None -> None
                | Some kind ->
                    if
                      Ty.spines ty >= 1
                      && An.non_escaping_top_spines (An.global ~arity:n t name ~arg:i)
                         >= 1
                      && Sh.argument_unshared_after t name ~arg:i ~args_unshared >= 1
                    then Some (i, kind)
                    else None
              in
              let rec first i = function
                | [] -> None
                | ty :: rest -> (
                    match candidate i ty with
                    | Some hit -> Some hit
                    | None -> first (i + 1) rest)
              in
              match first 1 (Ty.arg_tys inst n) with
              | None -> None
              | Some (i, kind) ->
                  let _, param = List.nth params (i - 1) in
                  let budget =
                    Sh.argument_unshared_after t name ~arg:i ~args_unshared
                  in
                  Some
                    (D.make D.Warning ~code:"LINT001" (param_binder_loc rhs i)
                       (Printf.sprintf
                          "%s misses in-place reuse of parameter %s: its top \
                           spine is unshared and non-escaping (reuse budget %d) \
                           yet no %s site was rewritten to a destructive one — \
                           every site either precedes a later use of %s or is \
                           not guarded by the emptiness test"
                          name param budget kind param)))
      defs

(* ---- LINT002: heap-doomed result -------------------------------------------- *)

let heap_doomed ctx ~members =
  let defs = member_defs ctx members in
  if defs = [] then []
  else
    let t = Rule.solver ctx in
    List.filter_map
      (fun (name, rhs) ->
        let info = Sh.result_unshared t name in
        if info.Sh.result_spines >= 1 && info.Sh.unshared_top = 0 then
          Some
            (D.make D.Note ~code:"LINT002" (A.loc rhs)
               (Printf.sprintf
                  "the result of %s may share an argument's spine at every call \
                   site (0 of %d top spine(s) provably unshared): the result is \
                   heap-doomed — neither reuse nor stack/block placement can \
                   ever target it"
                  name info.Sh.result_spines))
        else None)
      defs

(* ---- LINT003: Theorem-1 invariance self-audit -------------------------------- *)

(* The comparison itself, separated so tests can feed it corrupted rows
   directly: rows are (escapes, kept-top-spines) per instance, and
   Theorem 1 demands equal escape verdicts and — whenever something
   escapes — equal kept counts (when nothing escapes, k = 0 and the
   kept count is just s_i, which legitimately varies with the
   instance). *)
let invariant_rows rows =
  match rows with
  | [] | [ _ ] -> true
  | (esc0, keep0) :: rest ->
      List.for_all
        (fun (esc, keep) -> esc = esc0 && ((not esc0) || keep = keep0))
        rest

let invariance ctx =
  match Nml.Mono.monomorphize ctx.Rule.prog with
  | exception Nml.Mono.Too_many_instances -> []
  | mono ->
      let by_orig =
        List.fold_left
          (fun acc (orig, spec, ty) ->
            let prev = Option.value ~default:[] (List.assoc_opt orig acc) in
            (orig, prev @ [ (spec, ty) ]) :: List.remove_assoc orig acc)
          [] mono.Nml.Mono.instances
        |> List.rev
      in
      let injected = ref false in
      List.concat_map
        (fun (orig, insts) ->
          match List.assoc_opt orig ctx.Rule.surface.Nml.Surface.defs with
          | None -> []
          | Some _ when List.length insts < 2 -> []
          | Some rhs ->
              let t = Rule.solver ctx in
              let arity =
                Nml.Infer.scheme_params (Nml.Infer.def_scheme ctx.Rule.prog orig)
              in
              List.filter_map
                (fun i ->
                  let rows =
                    List.map
                      (fun (spec, ty) ->
                        let v = An.global ~inst:ty ~arity t orig ~arg:i in
                        (spec, ty, An.escapes v, An.non_escaping_top_spines v))
                      insts
                  in
                  let rows =
                    if ctx.Rule.fault = Rule.Corrupt_invariance && not !injected
                    then begin
                      injected := true;
                      match List.rev rows with
                      | (spec, ty, _, keep) :: tl ->
                          List.rev ((spec, ty, true, keep + 1) :: tl)
                      | [] -> rows
                    end
                    else rows
                  in
                  if invariant_rows (List.map (fun (_, _, e, k) -> (e, k)) rows)
                  then None
                  else
                    let loc = param_binder_loc rhs i in
                    Some
                      (D.make D.Error ~code:"LINT003" loc
                         ~notes:
                           (List.map
                              (fun (spec, ty, e, k) ->
                                ( loc,
                                  Printf.sprintf
                                    "instance %s at %s: escapes=%b, kept top \
                                     spines %d"
                                    spec (Ty.to_string ty) e k ))
                              rows)
                         (Printf.sprintf
                            "Theorem 1 violated for parameter %d of %s: s_i - \
                             k_i differs across its monomorphic instances — \
                             the solver's summaries are inconsistent"
                            i orig)))
                (List.init arity (fun i -> i + 1)))
        by_orig

(* ---- LINT004: dead spine ----------------------------------------------------- *)

(* A parameter that occurs in its body, yet whose spine-liveness verdict
   is [Dead] (no cell of it is ever needed: it is at most forwarded to
   parameters that are dead too) and whose spines escape nowhere
   (G(f, i) = <0,0>).  LINT007 reads the same verdict at call sites that
   pass a fresh spine; this rule reports it at the parameter binder. *)
let dead_spine ctx ~members =
  let finding name rhs n i (_, param) ty =
    let spine_desc =
      match Ty.repr ty with
      | Ty.List _ | Ty.Tree _ -> Some (Printf.sprintf "its %d spine(s) escape" (Ty.spines ty))
      | Ty.Var _ -> Some "it is spine-polymorphic and escapes"
      | _ -> None
    in
    match spine_desc with
    | Some desc
      when (not (exempt param))
           && param_occurs rhs i
           && Framework.Spinelive.arg_verdict (Lazy.force ctx.Rule.spinelive) name ~arg:i
              = Framework.Spinelive.Dead
           && B.equal (An.global ~arity:n (Rule.solver ctx) name ~arg:i).An.esc B.zero ->
        Some
          (D.make D.Warning ~code:"LINT004" (param_binder_loc rhs i)
             (Printf.sprintf
                "parameter %s of %s is a dead spine: %s nowhere (<0,0>) and %s \
                 never traverses it — the whole structure is passed around \
                 for nothing"
                param name desc name))
    | _ -> None
  in
  List.concat_map
    (fun (name, rhs) ->
      let params, _ = strip_lams rhs in
      let n = List.length params in
      (* the scheme, not the simplest instance: a parameter the
         definition never constrains shows up as a bare variable, and it
         is spiny at the instances that matter *)
      let sty = Nml.Infer.scheme_ty (Nml.Infer.def_scheme ctx.Rule.prog name) in
      if Ty.params sty < n then []
      else
        List.combine params (Ty.arg_tys sty n)
        |> List.mapi (fun k (p, ty) -> finding name rhs n (k + 1) p ty)
        |> List.filter_map Fun.id)
    (member_defs ctx members)

(* ---- LINT005: unused binding ------------------------------------------------- *)

let unused_finding l x =
  D.make D.Warning ~code:"LINT005" l
    (Printf.sprintf "binding %s is never used" x)

let rec unused_in_expr e =
  match e with
  | A.Const _ | A.Prim _ | A.Var _ -> []
  | A.App (_, f, a) -> unused_in_expr f @ unused_in_expr a
  | A.Lam (l, x, b) ->
      (if (not (exempt x)) && not (List.mem x (A.free_vars b)) then
         [ unused_finding l x ]
       else [])
      @ unused_in_expr b
  | A.If (_, c, t, f) -> unused_in_expr c @ unused_in_expr t @ unused_in_expr f
  | A.Letrec (_, bs, body) ->
      (* a nested binding is used when the body reaches it, possibly
         through other bindings of the group (mutual recursion that the
         body never enters is still unused) *)
      let names = List.map fst bs in
      let reachable = Hashtbl.create 8 in
      let rec reach x =
        if List.mem x names && not (Hashtbl.mem reachable x) then begin
          Hashtbl.replace reachable x ();
          List.iter reach (A.free_vars (List.assoc x bs))
        end
      in
      List.iter reach (A.free_vars body);
      List.filter_map
        (fun (x, rhs) ->
          if (not (exempt x)) && not (Hashtbl.mem reachable x) then
            Some (unused_finding (A.loc rhs) x)
          else None)
        bs
      @ List.concat_map (fun (_, rhs) -> unused_in_expr rhs) bs
      @ unused_in_expr body

let unused_scc ctx ~members =
  List.concat_map (fun (_, rhs) -> unused_in_expr rhs) (member_defs ctx members)

let unused_program ctx = unused_in_expr ctx.Rule.surface.Nml.Surface.main

(* ---- LINT006: unreachable branch ---------------------------------------------- *)

let rec unreachable_in_expr e =
  match e with
  | A.Const _ | A.Prim _ | A.Var _ -> []
  | A.App (_, f, a) -> unreachable_in_expr f @ unreachable_in_expr a
  | A.Lam (_, _, b) -> unreachable_in_expr b
  | A.If (_, A.Const (_, A.Cbool c), t, f) ->
      let dead = if c then f else t in
      D.make D.Warning ~code:"LINT006" (A.loc dead)
        (Printf.sprintf "this branch is unreachable: the condition is always %b"
           c)
      :: (unreachable_in_expr t @ unreachable_in_expr f)
  | A.If (_, c, t, f) ->
      unreachable_in_expr c @ unreachable_in_expr t @ unreachable_in_expr f
  | A.Letrec (_, bs, body) ->
      List.concat_map (fun (_, rhs) -> unreachable_in_expr rhs) bs
      @ unreachable_in_expr body

let unreachable_scc ctx ~members =
  List.concat_map (fun (_, rhs) -> unreachable_in_expr rhs) (member_defs ctx members)

let unreachable_program ctx = unreachable_in_expr ctx.Rule.surface.Nml.Surface.main

(* ---- LINT007: wasted spine at a call site ------------------------------------- *)

(* Cells of a syntactic cons-literal spine: [cons a (cons b nil)] has 2.
   The count stops at the first non-cons tail — even with a variable
   tail, the prefix cells are freshly allocated by the caller. *)
let rec spine_cells = function
  | A.App (_, A.App (_, A.Prim (_, A.Cons), _), tl) -> 1 + spine_cells tl
  | _ -> 0

(* A caller builds a fresh spine of two or more cells and passes it to a
   parameter whose spine-liveness verdict says the callee never needs
   the spine ([Dead]) or needs only its head cell ([Head_only]): every
   cell past what the callee reads is allocated for nothing.  The
   evidence is the callee's summary, which lives in the caller's
   dependency cone, so the finding is cacheable per SCC like the
   escape-backed rules. *)
let wasted_spine_in ctx e =
  let is_def = Nml.Infer.is_def ctx.Rule.prog in
  let flatten e =
    let rec go acc = function A.App (_, f, a) -> go (a :: acc) f | h -> (h, acc) in
    go [] e
  in
  let findings = ref [] in
  let rec walk bound e =
    match e with
    | A.Const _ | A.Prim _ | A.Var _ -> ()
    | A.Lam (_, x, b) -> walk (x :: bound) b
    | A.If (_, c, t, f) ->
        walk bound c;
        walk bound t;
        walk bound f
    | A.Letrec (_, bs, body) ->
        let bound = List.map fst bs @ bound in
        List.iter (fun (_, rhs) -> walk bound rhs) bs;
        walk bound body
    | A.App _ -> (
        let head, args = flatten e in
        walk bound head;
        List.iter (walk bound) args;
        match head with
        | A.Var (_, g) when (not (List.mem g bound)) && is_def g ->
            let t = Lazy.force ctx.Rule.spinelive in
            let m = Ty.params (Framework.Spinelive.Solver.instance_ty t g) in
            List.iteri
              (fun j a ->
                let j = j + 1 in
                let cells = spine_cells a in
                if j <= m && cells >= 2 then
                  match Framework.Spinelive.arg_verdict t g ~arg:j with
                  | Framework.Spinelive.Dead ->
                      findings :=
                        D.make D.Warning ~code:"LINT007" (A.loc a)
                          (Printf.sprintf
                             "a fresh %d-cell spine is passed to parameter %d of \
                              %s, but %s never needs any of it — the whole \
                              allocation is wasted"
                             cells j g g)
                        :: !findings
                  | Framework.Spinelive.Head_only ->
                      findings :=
                        D.make D.Warning ~code:"LINT007" (A.loc a)
                          (Printf.sprintf
                             "a fresh %d-cell spine is passed to parameter %d of \
                              %s, but %s only ever needs its head cell — every \
                              cell past the first is allocated for nothing"
                             cells j g g)
                        :: !findings
                  | Framework.Spinelive.Spine_live | Framework.Spinelive.Live -> ())
              args
        | _ -> ())
  in
  walk [] e;
  List.rev !findings

let wasted_spine ctx ~members =
  List.concat_map (fun (_, rhs) -> wasted_spine_in ctx rhs) (member_defs ctx members)

let wasted_spine_program ctx = wasted_spine_in ctx ctx.Rule.surface.Nml.Surface.main

(* ---- LINT008: mutation through a shared spine ---------------------------------- *)

(* The sharing side of the reuse licence, audited independently: a
   destructive candidate recycles parameter [i]'s spine cells, which is
   only coherent when the sharing analysis agrees those cells cannot
   reappear on the result's spine ([S(f, i) <> spine-shared] — the
   escape analysis already found the top spine non-escaping, and a
   spine-shared verdict would contradict it).  On a sound solver pair
   the rule is silent; [Corrupt_sharing] seeds the disagreement the
   cross-check must catch. *)
let mutation_shared ctx ~members =
  let defs = member_defs ctx members in
  if defs = [] then []
  else
    let t = Rule.solver ctx in
    let sub = { ctx.Rule.surface with Nml.Surface.defs = defs } in
    let cands = Optimize.Reuse.candidates t sub in
    if cands = [] then []
    else
      let al = Lazy.force ctx.Rule.alias in
      let injected = ref false in
      List.filter_map
        (fun (c : Optimize.Reuse.candidate) ->
          let v =
            match
              Framework.Alias.arg_verdict al c.Optimize.Reuse.def
                ~arg:c.Optimize.Reuse.arg
            with
            | v -> v
            | exception (Invalid_argument _ | Not_found) ->
                Framework.Alias.Unshared
          in
          let v =
            if ctx.Rule.fault = Rule.Corrupt_sharing && not !injected then begin
              injected := true;
              Framework.Alias.Shared_spine
            end
            else v
          in
          match v with
          | Framework.Alias.Shared_spine ->
              Some
                (D.make D.Error ~code:"LINT008" c.Optimize.Reuse.loc
                   (Printf.sprintf
                      "destructive reuse of parameter %s in %s mutates through \
                       a possibly shared spine: the sharing analysis reports \
                       S(%s, %d) = spine-shared, so the recycled cells may \
                       still be reachable through the result — the escape and \
                       sharing analyses disagree about this parameter"
                      c.Optimize.Reuse.param c.Optimize.Reuse.primed
                      c.Optimize.Reuse.def c.Optimize.Reuse.arg))
          | Framework.Alias.Unshared | Framework.Alias.Shared_elem -> None)
        cands

(* ---- the registry data -------------------------------------------------------- *)

let all : Rule.t list =
  [
    {
      Rule.code = "LINT001";
      title = "missed-reuse";
      summary =
        "in-place reuse is licensed by the escape and sharing analyses but no \
         destructive version was produced";
      severity = D.Warning;
      check_scc = missed_reuse;
      check_program = Rule.no_program;
    };
    {
      Rule.code = "LINT002";
      title = "heap-doomed-result";
      summary =
        "the definition's result may share an argument spine at every call \
         site, so no storage optimization can target it";
      severity = D.Note;
      check_scc = heap_doomed;
      check_program = Rule.no_program;
    };
    {
      Rule.code = "LINT003";
      title = "instance-invariance";
      summary =
        "Theorem-1 self-audit: s_i - k_i must agree across all monomorphic \
         instances of a definition";
      severity = D.Error;
      check_scc = Rule.no_scc;
      check_program = invariance;
    };
    {
      Rule.code = "LINT004";
      title = "dead-spine";
      summary =
        "a parameter spine with global escape <0,0> that the function never \
         traverses";
      severity = D.Warning;
      check_scc = dead_spine;
      check_program = Rule.no_program;
    };
    {
      Rule.code = "LINT005";
      title = "unused-binding";
      summary = "a binding that is never used";
      severity = D.Warning;
      check_scc = unused_scc;
      check_program = unused_program;
    };
    {
      Rule.code = "LINT006";
      title = "unreachable-branch";
      summary = "a conditional branch under a constant condition";
      severity = D.Warning;
      check_scc = unreachable_scc;
      check_program = unreachable_program;
    };
    {
      Rule.code = "LINT007";
      title = "wasted-spine";
      summary =
        "a fresh multi-cell spine is passed to a parameter whose spine-liveness \
         verdict is dead or head-only, so the callee never needs the cells";
      severity = D.Warning;
      check_scc = wasted_spine;
      check_program = wasted_spine_program;
    };
    {
      Rule.code = "LINT008";
      title = "mutation-through-shared-spine";
      summary =
        "a destructive reuse candidate's consumed parameter is reported \
         spine-shared by the sharing analysis: the in-place mutation would \
         write through cells still reachable from the result";
      severity = D.Error;
      check_scc = mutation_shared;
      check_program = Rule.no_program;
    };
  ]

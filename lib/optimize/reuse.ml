module A = Nml.Ast
module Ty = Nml.Ty
module Ir = Runtime.Ir
module Fix = Escape.Fixpoint
module An = Escape.Analysis
module Sh = Escape.Sharing
module Alias = Framework.Alias

type candidate = {
  def : string;
  primed : string;
  arg : int;
  param : string;
  loc : Nml.Loc.t;  (** surface position of the reused parameter's binder *)
  sites : Liveness.site list;  (** cons sites rewritten to [DCONS] *)
  node_sites : Liveness.site list;  (** node sites rewritten to [DNODE] *)
}

type report = {
  candidates : candidate list;
  substituted_calls : int;
  alias_licensed : int;
      (* redirected call sites where only the sharing analysis (not the
         Theorem-2 freshness recursion) proved the argument unshared *)
}

(* Location of the [i]-th (1-based) leading lambda binder of a
   definition's right-hand side — where the reused parameter is bound in
   the surface program (locations survive monomorphization). *)
let param_loc rhs i =
  let rec walk j = function
    | A.Lam (l, _, b) -> if j = i then l else walk (j + 1) b
    | e -> A.loc e
  in
  walk 1 rhs

(* The nil-guarded DCONS and DNODE sites a parameter would license, read
   off the body alone; only a parameter with one is worth the escape
   query [G(f,i)], and only a definition with such a parameter is worth
   its instance type. *)
let guarded_sites body param =
  let guarded sites = List.filter (fun s -> s.Liveness.nil_guarded) sites |> Liveness.select in
  ( guarded (Liveness.eligible_sites body ~param),
    guarded (Liveness.eligible_node_sites body ~param) )

let candidates t (surface : Nml.Surface.t) =
  List.filter_map
    (fun (name, rhs) ->
      let params, body = Shape.strip_lams rhs in
      let n = List.length params in
      let sites = List.map (guarded_sites body) params in
      if List.for_all (fun (cons, node) -> cons = [] && node = []) sites then None
      else
        let inst = Fix.instance_ty t name in
        if Ty.params inst < n then None
        else
          let rec pick i = function
            | [] -> None
            | (ty, param, (cons, node)) :: rest ->
                let next () = pick (i + 1) rest in
                let sites, node_sites =
                  match Ty.repr ty with
                  | Ty.List _ -> (cons, [])
                  | Ty.Tree _ -> ([], node)
                  | _ -> ([], [])
                in
                if sites = [] && node_sites = [] then next ()
                else
                  let v = An.global ~arity:n t name ~arg:i in
                  if An.non_escaping_top_spines v < 1 then next ()
                  else
                    Some
                      {
                        def = name;
                        primed = name ^ "'";
                        arg = i;
                        param;
                        loc = param_loc rhs i;
                        sites;
                        node_sites;
                      }
          in
          pick 1
            (List.map2 (fun ty (param, s) -> (ty, param, s)) (Ty.arg_tys inst n)
               (List.combine params sites)))
    surface.Nml.Surface.defs

(* ---- freshness ------------------------------------------------------------ *)

(* [fresh_depth env e]: how many top spines of [e]'s value are certainly
   fresh and unshared — Theorem 2, clause 1, applied syntactically:
   literals are fresh to their literal depth; a definition call is fresh
   to the depth the sharing analysis derives from its arguments'
   freshness; [car] strips a level, [cdr] preserves the remaining ones;
   a let-bound variable inherits the freshness of its right-hand side
   (our uses project disjoint substructures, as in the paper's PS''). *)
let base_of cands h =
  match List.find_opt (fun c -> String.equal c.primed h) cands with
  | Some c -> c.def
  | None -> h

let fresh_depth t (surface : Nml.Surface.t) cands =
  let base_of = base_of cands in
  let rec depth env e =
    if Shape.is_literal_list e then
      match e with
      | A.Const (_, A.Cnil) -> max_int (* nil has no cells to share *)
      | _ -> Shape.literal_depth e
    else
      match e with
      | A.Const (_, A.Cleaf) -> max_int (* a leaf has no cells to share *)
      | A.Var (_, v) -> ( match List.assoc_opt v env with Some d -> d | None -> 0)
      | A.App (_, A.Prim (_, (A.Car | A.Label)), e') -> max 0 (depth env e' - 1)
      | A.App (_, A.Prim (_, (A.Cdr | A.Left | A.Right)), e') -> depth env e'
      | A.App (_, A.App (_, A.App (_, A.Prim (_, A.Node), l), x), r) ->
          (* fresh node cell; level 1 holds as far as both children are
             fresh, deeper levels as far as the label is *)
          min (min (depth env l) (depth env r)) (1 + depth env x)
      | _ -> (
          match Shape.head_and_args e with
          | A.Var (_, h), (_ :: _ as args) -> (
              let g = base_of h in
              if not (List.mem_assoc g surface.Nml.Surface.defs) then 0
              else
                Sh.call_fresh_depth t g
                  ~args_unshared:(List.map (depth env) args))
          | _ -> 0)
  in
  depth

(* ---- alias-informed freshness ---------------------------------------------- *)

(* The call clause of {!Framework.Alias.Local.depth}: resolve a head name
   to the {b max} of the Theorem-2 spine arithmetic and the sharing
   summaries' all-or-nothing rule (every argument unshared-into-result or
   itself fully fresh ⇒ the result is fresh to its full spine count).
   The max is sound because each side is an independent lower bound on
   the certainly-fresh depth. *)
let alias_resolve t (surface : Nml.Surface.t) cands at =
  let base_of = base_of cands in
  fun h ->
    let g = base_of h in
    if not (List.mem_assoc g surface.Nml.Surface.defs) then None
    else
      Some
        (fun args_fresh ->
          let m = List.length args_fresh in
          let t2 = Sh.call_fresh_depth t g ~args_unshared:args_fresh in
          let by_alias =
            match
              let ty = Alias.Solver.instance_ty at g in
              if Ty.params ty <> m then 0
              else
                let verdicts =
                  List.init m (fun i -> Alias.arg_verdict at g ~arg:(i + 1))
                in
                Alias.Local.call_unshared ~verdicts
                  ~arg_spines:(List.map Ty.spines (Ty.arg_tys ty m))
                  ~result_spines:(Ty.spines (Ty.result_ty ty m))
                  ~args_fresh
            with
            | d -> d
            | exception (Nml.Infer.Error _ | Invalid_argument _ | Not_found) -> 0
          in
          max t2 by_alias)

(* ---- occurrence linearity --------------------------------------------------- *)

(* Occurrence paths of [x] in [e]: for each free occurrence, the chain of
   car/cdr projections immediately wrapping it, innermost first; a bare
   occurrence has the empty path.  Two paths denote disjoint substructures
   iff neither is a prefix of the other ([car s] and [car (cdr s)] are
   disjoint, [s] overlaps everything). *)
let occurrence_paths x e =
  let paths = ref [] in
  let rec go ctx e =
    match e with
    | A.Var (_, v) -> if String.equal v x then paths := ctx :: !paths
    | A.App (_, A.Prim (_, ((A.Car | A.Cdr | A.Label | A.Left | A.Right) as p)), e') ->
        go (p :: ctx) e'
    | A.App (_, f, a) ->
        go [] f;
        go [] a
    | A.Lam (_, p, b) -> if not (String.equal p x) then go [] b
    | A.If (_, c, t, f) ->
        go [] c;
        go [] t;
        go [] f
    | A.Letrec (_, bs, body) ->
        if not (List.exists (fun (p, _) -> String.equal p x) bs) then begin
          List.iter (fun (_, b) -> go [] b) bs;
          go [] body
        end
    | A.Const _ | A.Prim _ -> ()
  in
  go [] e;
  !paths

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | a :: p', b :: q' -> a = b && is_prefix p' q'

let pairwise_disjoint paths =
  let rec check = function
    | [] -> true
    | p :: rest ->
        List.for_all (fun q -> (not (is_prefix p q)) && not (is_prefix q p)) rest
        && check rest
  in
  check paths

(* ---- call-site redirection ------------------------------------------------ *)

(* The projection path of a suffix expression ([x], [cdr x], [left x],
   ...), innermost projection first. *)
let rec suffix_path x = function
  | A.Var (_, v) when String.equal v x -> Some []
  | A.App (_, A.Prim (_, ((A.Cdr | A.Left | A.Right) as p)), e) ->
      (* innermost projection first, matching {!occurrence_paths} *)
      Option.map (fun path -> path @ [ p ]) (suffix_path x e)
  | _ -> None

let overlaps path others =
  List.exists (fun q -> is_prefix path q || is_prefix q path) others

(* Renames call heads [g ...] to [g' ...] when the reused argument is
   certainly fresh-unshared, or — inside g's own primed body — a
   cdr/left/right-suffix of the reused parameter that no later-evaluated
   occurrence of the parameter overlaps.  The latter condition is the
   linearity side of the paper's "no further use": a primed call destroys
   its argument's cells when it runs, so nothing evaluated afterwards in
   the same activation may read that substructure (in
   [node (f (right t)) 0 (f (right t))] only the second call may be
   redirected). *)
let subst_calls ?alias t surface cands ~self ~count ~alias_count e =
  let t2_depth = fresh_depth t surface cands in
  (* certainly-fresh depth: the Theorem-2 recursion, raised by the
     flow-sensitive sharing judgment when a solver is supplied — the
     latter additionally joins [if] branches, credits a just-built
     cons/node cell with its own fresh level, and carries let-bound
     freshness through the abstract heap *)
  let fresh_depth =
    match alias with
    | None -> t2_depth
    | Some at ->
        let resolve = alias_resolve t surface cands at in
        fun env e -> max (t2_depth env e) (Alias.Local.depth ~resolve env e)
  in
  (* projection paths of the reused parameter occurring in [e] *)
  let self_paths e =
    match self with Some (_, sparam) -> occurrence_paths sparam e | None -> []
  in
  (* [tenv] carries let-bound depths as the pure Theorem-2 recursion
     would derive them, [env] the alias-joined ones — so [alias_count]
     reports exactly the sites the baseline could not have licensed
     (without the alias solver the two environments coincide) *)
  let rec go tenv env ~k e =
    match e with
    | A.Const _ | A.Prim _ | A.Var _ -> e
    | A.Lam (l, x, b) ->
        A.Lam (l, x, go (List.remove_assoc x tenv) (List.remove_assoc x env) ~k:[] b)
    | A.If (l, c, t', f) ->
        let kc = self_paths t' @ self_paths f @ k in
        A.If (l, go tenv env ~k:kc c, go tenv env ~k t', go tenv env ~k f)
    | A.Letrec (l, bs, body) ->
        let drop acc = List.fold_left (fun acc (x, _) -> List.remove_assoc x acc) acc bs in
        let tenv' = drop tenv and env' = drop env in
        let rec conv_bs = function
          | [] -> []
          | (x, b) :: rest ->
              let later =
                List.concat_map (fun (_, b') -> self_paths b') rest
                @ self_paths body @ k
              in
              (x, go tenv' env' ~k:later b) :: conv_bs rest
        in
        let bs' = conv_bs bs in
        A.Letrec (l, bs', go tenv' env' ~k body)
    | A.App (l, A.Lam (ll, x, b), rhs) ->
        (* let sugar: the variable inherits the right-hand side's
           freshness, but only when its occurrences project pairwise
           disjoint substructures — otherwise one occurrence could
           destroy cells another still reads *)
        let rhs' = go tenv env ~k:(self_paths b @ k) rhs in
        let disjoint = pairwise_disjoint (occurrence_paths x b) in
        let d_t2 = if disjoint then t2_depth tenv rhs' else 0 in
        let d = if disjoint then fresh_depth env rhs' else 0 in
        let tenv' = (x, d_t2) :: List.remove_assoc x tenv in
        let env' = (x, d) :: List.remove_assoc x env in
        A.App (l, A.Lam (ll, x, go tenv' env' ~k b), rhs')
    | A.App (_, _, _) -> (
        let head, args = Shape.head_and_args e in
        (* argument i's continuation: the later arguments, then whatever
           follows the whole application *)
        let rec conv_args = function
          | [] -> []
          | a :: rest ->
              let later = List.concat_map self_paths rest @ k in
              go tenv env ~k:later a :: conv_args rest
        in
        let args' = conv_args args in
        let rebuild head' = A.app head' args' in
        match head with
        | A.Var (hl, g) -> (
            match List.find_opt (fun c -> String.equal c.def g) cands with
            | Some c when List.length args' >= c.arg ->
                let actual = List.nth args' (c.arg - 1) in
                let self_ok =
                  match self with
                  | Some (sname, sparam) when String.equal sname g -> (
                      match suffix_path sparam actual with
                      | Some path -> not (overlaps path k)
                      | None -> false)
                  | _ -> false
                in
                if self_ok || fresh_depth env actual >= 1 then begin
                  incr count;
                  if (not self_ok) && t2_depth tenv actual < 1 then
                    incr alias_count;
                  rebuild (A.Var (hl, c.primed))
                end
                else rebuild head
            | _ -> rebuild head)
        | _ -> rebuild (go tenv env ~k head))
  in
  go [] [] ~k:[] e

(* ---- the DCONS rewrite ----------------------------------------------------- *)

(* Mirrors the traversal (and cons/node numbering) of
   {!Liveness.collect}. *)
let rewrite_to_ir ~param ~selected ~selected_nodes body =
  let counter = ref 0 in
  let node_counter = ref 0 in
  let selected_ids = List.map (fun s -> s.Liveness.id) selected in
  let selected_node_ids = List.map (fun s -> s.Liveness.id) selected_nodes in
  let rec go e =
    match e with
    | A.Const (_, c) -> Ir.Const c
    | A.Prim (_, p) -> Ir.Prim p
    | A.Var (_, x) -> Ir.Var x
    | A.App (_, A.App (_, A.Prim (_, A.Cons), e1), e2) ->
        let id = !counter in
        incr counter;
        let e1' = go e1 in
        let e2' = go e2 in
        if List.mem id selected_ids then
          Ir.App (Ir.App (Ir.App (Ir.Dcons, Ir.Var param), e1'), e2')
        else Ir.App (Ir.App (Ir.Prim A.Cons, e1'), e2')
    | A.App (_, A.App (_, A.App (_, A.Prim (_, A.Node), e1), e2), e3) ->
        let id = !node_counter in
        incr node_counter;
        let e1' = go e1 in
        let e2' = go e2 in
        let e3' = go e3 in
        if List.mem id selected_node_ids then
          Ir.App (Ir.App (Ir.App (Ir.App (Ir.Dnode, Ir.Var param), e1'), e2'), e3')
        else Ir.App (Ir.App (Ir.App (Ir.Prim A.Node, e1'), e2'), e3')
    | A.App (_, f, a) ->
        (* children are numbered in the same order as Liveness.collect
           visits them, so evaluation order must be made explicit *)
        let f' = go f in
        let a' = go a in
        Ir.App (f', a')
    | A.Lam (_, x, b) -> Ir.Lam (x, go b)
    | A.If (_, c, t, f) ->
        let c' = go c in
        let t' = go t in
        let f' = go f in
        Ir.If (c', t', f')
    | A.Letrec (_, bs, body) ->
        let bs' =
          List.fold_left (fun acc (x, b) -> (x, go b) :: acc) [] bs |> List.rev
        in
        let body' = go body in
        Ir.Letrec (bs', body')
  in
  go body

let primed_rhs_with ?alias t surface cands ~count ~alias_count c =
  let rhs = Nml.Surface.def surface c.def in
  let params, body = Shape.strip_lams rhs in
  let body' =
    subst_calls ?alias t surface cands ~self:(Some (c.def, c.param)) ~count
      ~alias_count body
  in
  let ir_body =
    rewrite_to_ir ~param:c.param ~selected:c.sites ~selected_nodes:c.node_sites body'
  in
  List.fold_right (fun x acc -> Ir.Lam (x, acc)) params ir_body

let primed_rhs ?alias t surface c =
  primed_rhs_with ?alias t surface (candidates t surface) ~count:(ref 0)
    ~alias_count:(ref 0) c

let apply ?alias t (surface : Nml.Surface.t) =
  let cands = candidates t surface in
  let count = ref 0 in
  let alias_count = ref 0 in
  let primed =
    List.map
      (fun c -> (c.primed, primed_rhs_with ?alias t surface cands ~count ~alias_count c))
      cands
  in
  let main' =
    subst_calls ?alias t surface cands ~self:None ~count ~alias_count
      surface.Nml.Surface.main
  in
  ( primed,
    main',
    { candidates = cands; substituted_calls = !count; alias_licensed = !alias_count } )

let program ?alias t (surface : Nml.Surface.t) =
  let primed, main', report = apply ?alias t surface in
  let originals = List.map (fun (n, rhs) -> (n, Ir.of_ast rhs)) surface.Nml.Surface.defs in
  let prog =
    match originals @ primed with
    | [] -> Ir.of_ast main'
    | defs -> Ir.Letrec (defs, Ir.of_ast main')
  in
  (prog, report)

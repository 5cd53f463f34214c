(* Sharing/alias analysis, in the spirit of Hill & Spoto's
   abstract-interpretation derivation of sharing domains: for every
   (definition, parameter) pair, may the definition's {e result} share
   heap cells with that argument — and if so, can the shared cells sit
   on the result's spine (where a destructive [DCONS]/[DNODE] would
   overwrite them) or only inside its elements?

   The abstract heap is a set of sharing pairs.  Interprocedurally it is
   the variable⇄result pairs (one verdict per parameter, plus the
   derived parameter⇄parameter may-alias pairs: two arguments both
   retained in the result may alias each other through it), solved by
   {!Solver.Make} over the {!Flow} scaffolding exactly like the usage
   and spine-liveness Specs.  Intraprocedurally ({!Local}) it is a
   flow-sensitive variable⇄variable map carried per program point
   through lets, branches and constructions — the judgment
   [Optimize.Reuse] consults to license in-place reuse at let-bound
   intermediate spines and branch-local conses where Theorem 2's
   [d_f - max_i esc_i] bound proves nothing.

   Two flags per value: [dep] (the value may reach cells of the probed
   argument at all) and [sp] (some of those cells may sit in
   spine/constructor position of the value — the cells an in-place
   reuse would destroy).  The verdicts:

   - [Unshared]     — the result shares no cell with the argument: a
                      caller passing anything may treat the result as
                      entirely fresh as far as this argument goes;
   - [Shared_elem]  — cells may be shared, but never on the result's
                      spine (element-only sharing);
   - [Shared_spine] — the argument's cells may appear on the result's
                      spine: reusing the result in place is licensed
                      only when the argument itself was fresh. *)

module A = Nml.Ast
module Ty = Nml.Ty

module Flags = struct
  let analysis_name = "sharing"

  type t = { dep : bool; sp : bool }

  let bot = { dep = false; sp = false }
  let top = { dep = true; sp = true }
  let join a b = { dep = a.dep || b.dep; sp = a.sp || b.sp }
  let equal a b = a.dep = b.dep && a.sp = b.sp
  let leq a b = ((not a.dep) || b.dep) && ((not a.sp) || b.sp)

  let dep f = f.dep

  (* the probed argument's own cells are, trivially, spine cells *)
  let mark_dep _ = top

  (* consumed as a base datum (condition, comparison, arithmetic): no
     cell of the operand flows into the new value *)
  let detach _ = bot

  let observe f = f

  (* extracting an element: a base ([int]/[bool]) element carries no
     cells at all; a boxed element — a nested list, a tree, a pair, a
     closure — still consists of the argument's cells, and the
     constructor cell at its own top is one of them, so both bits
     survive.  ([spined] is the spine-liveness analysis' refinement; for
     sharing, a pair element is retention just like a list element.) *)
  let elem_view ~spined:_ ~boxed f = if boxed then f else bot

  let force_tail f = f
  let force_test f = f
  let force_proj f = f
end

module D = Flow.Make (Flags) ()
module Solver = Solver.Make (D)

type verdict = Unshared | Shared_elem | Shared_spine

let verdicts =
  {
    Verdict.letter = "S";
    rows =
      [
        (Unshared, "unshared", "the result shares no cells with this argument");
        (Shared_elem, "element-shared", "shared cells stay out of the result's spine");
        (Shared_spine, "spine-shared", "the result's spine may contain this argument's cells");
      ];
  }

let verdict_name = Verdict.name verdicts
let verdict_of_name = Verdict.of_name verdicts

type def_report = verdict Verdict.def_report

let verdict_of_flags f =
  if f.Flags.sp then Shared_spine else if f.Flags.dep then Shared_elem else Unshared

(* The verdict is instance-indexed like every summary in this framework:
   [S(head, 1)] at [int list -> int] is [Unshared] (an [int] element
   owns no cells), at [int list list -> int list] it is [Shared_spine]
   (the element {e is} the argument's structure).  [?inst] selects the
   ground instance to judge; the default is the simplest one, matching
   {!Solver.instance_ty} and the other analyses' reports. *)
let arg_verdict t ?inst name ~arg =
  let ty =
    match inst with Some ty -> ty | None -> Solver.instance_ty t name
  in
  let m = Ty.params ty in
  let base_typed =
    arg >= 1 && arg <= m
    && match Ty.repr (List.nth (Ty.arg_tys ty m) (arg - 1)) with
       | Ty.Int | Ty.Bool -> true
       | _ -> false
  in
  (* a base-typed argument owns no heap cells, so nothing of it can be
     shared into the result — and probing it would smear its bits over
     values merely computed {e from} it *)
  if base_typed then Unshared
  else
    Solver.global_test t ~inst:ty name ~arg (fun v ty ->
        verdict_of_flags (D.probe_at v ty ~arg))

(* two arguments both retained in the result may reach each other's
   cells through it — the variable⇄variable side of the summary, derived
   from the per-argument verdicts wherever it is printed or stored *)
let may_alias_pairs args =
  let retained =
    List.filter_map
      (fun a -> if a.Verdict.a_verdict <> Unshared then Some a.Verdict.a_index else None)
      args
  in
  let rec pairs = function
    | [] -> []
    | i :: rest -> List.map (fun j -> (i, j)) rest @ pairs rest
  in
  pairs retained

let report t name =
  Verdict.report ~ty:(Solver.instance_ty t name) name (fun arg -> arg_verdict t name ~arg)

let pp_def_report =
  Verdict.pp_def_report verdicts ~trailer:(fun ppf r ->
      match may_alias_pairs r.Verdict.r_args with
      | [] -> ()
      | ps ->
          Format.fprintf ppf "@,  may-alias:";
          List.iter (fun (i, j) -> Format.fprintf ppf " {%d,%d}" i j) ps)

(* ---- the flow-sensitive local judgment -------------------------------------

   [Local.depth] answers, at one program point of the surface program:
   how many top spine levels of this expression's value are certainly
   fresh and unshared?  It is the alias-side replacement for the purely
   syntactic Theorem-2 recursion: branches of an [if] are joined
   (branch-local conses), a [cons]/[node] cell just built is fresh at
   its own level, and a let-bound variable carries its right-hand
   side's freshness through the abstract heap (let-bound intermediate
   spines) — provided its occurrences project pairwise disjoint
   substructures, so no occurrence can destroy cells another reads.

   Definition calls go through the [resolve] callback, which is where
   the client combines this analysis' interprocedural verdicts with the
   escape-derived Theorem-2 bound (see {!Optimize.Reuse}). *)

module Local = struct
  (* saturating "infinite" freshness, safe under [1 + _] *)
  let inf = max_int / 2
  let succ_sat d = if d >= inf then inf else d + 1
  let pred_sat d = if d >= inf then inf else max 0 (d - 1)

  type env = (string * int) list

  let empty : env = []
  let bind env x d = (x, d) :: List.remove_assoc x env
  let unbind env x = List.remove_assoc x env

  let head_and_args e =
    let rec go acc = function A.App (_, f, a) -> go (a :: acc) f | h -> (h, acc) in
    go [] e

  (* occurrence paths of [x] in [e]: the chain of projections immediately
     wrapping each free occurrence, innermost first; two occurrences
     denote disjoint substructures iff neither path prefixes the other *)
  let occurrence_paths x e =
    let paths = ref [] in
    let rec go ctx e =
      match e with
      | A.Var (_, v) -> if String.equal v x then paths := ctx :: !paths
      | A.App (_, A.Prim (_, ((A.Car | A.Cdr | A.Label | A.Left | A.Right) as p)), e')
        ->
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

  let depth ~resolve env e =
    let rec go env e =
      match e with
      | A.Const (_, (A.Cnil | A.Cleaf)) -> inf (* no cells to share *)
      | A.Const _ -> 0
      | A.Var (_, v) -> ( match List.assoc_opt v env with Some d -> d | None -> 0)
      | A.Lam _ -> 0
      | A.If (_, _, t, f) -> min (go env t) (go env f)
      | A.Letrec (_, bs, body) ->
          go (List.fold_left (fun acc (x, _) -> unbind acc x) env bs) body
      | A.App (_, A.Lam (_, x, b), rhs) ->
          (* let sugar: the variable inherits its right-hand side's
             freshness through the abstract heap *)
          let d =
            if pairwise_disjoint (occurrence_paths x b) then go env rhs else 0
          in
          go (bind env x d) b
      | A.App (_, A.App (_, A.Prim (_, A.Cons), h), t) ->
          (* the cons cell itself is fresh; deeper levels are as fresh as
             the head, the tail extends the same spine *)
          min (go env t) (succ_sat (go env h))
      | A.App (_, A.App (_, A.App (_, A.Prim (_, A.Node), l), x), r) ->
          min (min (go env l) (go env r)) (succ_sat (go env x))
      | A.App (_, A.Prim (_, (A.Car | A.Label)), e') -> pred_sat (go env e')
      | A.App (_, A.Prim (_, (A.Cdr | A.Left | A.Right)), e') -> go env e'
      | A.App _ -> (
          match head_and_args e with
          | A.Var (_, h), (_ :: _ as args) -> (
              match resolve h with
              | Some unshared_given -> (
                  match unshared_given (List.map (go env) args) with
                  | d -> d
                  | exception (Invalid_argument _ | Not_found | Failure _) -> 0)
              | None -> 0)
          | _ -> 0)
      | A.Prim _ -> 0
    in
    go env e

  (* The interprocedural side of a call's freshness: if every argument
     is either never shared into the result or itself entirely fresh,
     every cell of the result is fresh or unshared — the result is
     unshared to its full spine count.  This is the clause that needs
     the sharing verdicts; the per-level Theorem-2 arithmetic is the
     escape analysis' business and the client takes the max of both. *)
  let call_unshared ~verdicts ~arg_spines ~result_spines ~args_fresh =
    (* [d = 0] means the argument's type has no list spines — for a
       base type that is harmless, but an arrow-typed argument also has
       spine count 0 while its closure may smuggle caller cells into
       the result, so a shared verdict there must block the rule *)
    if
      List.for_all2
        (fun (v, d) u -> v = Unshared || (d > 0 && u >= d))
        (List.combine verdicts arg_spines)
        args_fresh
    then result_spines
    else 0
end

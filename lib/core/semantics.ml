module Ty = Nml.Ty
module Tast = Nml.Tast
module Ast = Nml.Ast
module Env = Map.Make (String)

type ctx = {
  d : unit -> int;
  global : string -> Nml.Ty.t -> Dvalue.t;
  max_iters : int;
  mutable iters : int;
  mutable capped : bool;
  mutable fv_cache : (Tast.texpr * string list) list;
      (** free variables per lambda node (physical identity): a lambda is
          abstractly evaluated once per application of its enclosing
          function, so recomputing its free variables dominates *)
}

let arrow_parts ty =
  match Ty.repr ty with
  | Ty.Arrow (a, b) -> (a, b)
  | _ -> invalid_arg "Semantics: primitive occurrence with non-arrow type"

let const_value ~ty (c : Ast.const) =
  match c with
  | Ast.Cint _ | Ast.Cbool _ -> Dvalue.base ~ty Besc.zero
  | Ast.Cnil | Ast.Cleaf -> Dvalue.bottom ty

let prim_value ~ty (p : Ast.prim) =
  let t1, rest = arrow_parts ty in
  match p with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Eq | Ast.Ne | Ast.Lt
  | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
      (* ⟨<0,0>, λx.⟨x₁, λy.⟨<0,0>, err⟩⟩⟩ *)
      let _t2, tr = arrow_parts rest in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x ->
          Dvalue.direct ~ty:rest ~esc:(Dvalue.total_esc x) ~app:(fun _y ->
              Dvalue.base ~ty:tr Besc.zero))
  | Ast.Not ->
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun _x -> Dvalue.base ~ty:rest Besc.zero)
  | Ast.Null ->
      (* ⟨<0,0>, λx.⟨<0,0>, err⟩⟩ *)
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun _x -> Dvalue.base ~ty:rest Besc.zero)
  | Ast.Cons ->
      (* ⟨<0,0>, λx.⟨x₁, λy. x ⊔ y⟩⟩ *)
      let _t2, tr = arrow_parts rest in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x ->
          Dvalue.direct ~ty:rest ~esc:(Dvalue.total_esc x) ~app:(fun y ->
              Dvalue.with_ty tr (Dvalue.join x y)))
  | Ast.Car ->
      (* car^s = ⟨<0,0>, λx. sub^s(x)⟩ with s the spine count of the
         argument list type *)
      let s = Ty.spines t1 in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x ->
          Dvalue.with_ty rest (Dvalue.with_esc (Besc.sub ~s x.Dvalue.esc) x))
  | Ast.Cdr ->
      (* D_e^{t list} = D_e^t: the tail may contain exactly as many spines
         as the list itself, so cdr is the identity *)
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x -> Dvalue.with_ty rest x)
  | Ast.Pair ->
      (* components are tracked separately: D_e^{t1 * t2} = D_e^t1 x D_e^t2 *)
      let _t2, tr = arrow_parts rest in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x ->
          Dvalue.direct ~ty:rest ~esc:(Dvalue.total_esc x) ~app:(fun y ->
              Dvalue.pair ~ty:tr ~esc:Besc.zero (x, y)))
  | Ast.Fst ->
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun p -> Dvalue.with_ty rest (Dvalue.fst_of p))
  | Ast.Snd ->
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun p -> Dvalue.with_ty rest (Dvalue.snd_of p))
  | Ast.Node ->
      (* node cells form the tree's spine-like level: like cons, the
         result joins everything (children, label, the cell itself) *)
      let t2, rest2 = arrow_parts rest in
      ignore t2;
      let _t3, tr = arrow_parts rest2 in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun l ->
          Dvalue.direct ~ty:rest ~esc:(Dvalue.total_esc l) ~app:(fun x ->
              Dvalue.direct ~ty:rest2
                ~esc:(Besc.join (Dvalue.total_esc l) (Dvalue.total_esc x))
                ~app:(fun r -> Dvalue.with_ty tr (Dvalue.join (Dvalue.join l x) r))))
  | Ast.Isleaf ->
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun _x -> Dvalue.base ~ty:rest Besc.zero)
  | Ast.Label ->
      (* label^s strips the tree level, exactly as car^s does a spine *)
      let s = Ty.spines t1 in
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x ->
          Dvalue.with_ty rest (Dvalue.with_esc (Besc.sub ~s x.Dvalue.esc) x))
  | Ast.Left | Ast.Right ->
      (* a subtree may contain exactly as much as the tree: identity,
         like cdr *)
      Dvalue.direct ~ty ~esc:Besc.zero ~app:(fun x -> Dvalue.with_ty rest x)

let rec eval ctx env (e : Tast.texpr) : Dvalue.t =
  match e.Tast.desc with
  | Tast.Const c -> const_value ~ty:e.Tast.ty c
  | Tast.Prim p -> prim_value ~ty:e.Tast.ty p
  | Tast.Var x -> (
      match Env.find_opt x env with
      | Some v -> v
      | None -> ctx.global x e.Tast.ty)
  | Tast.App (f, a) ->
      let vf = eval ctx env f in
      let va = eval ctx env a in
      Dvalue.apply vf va
  | Tast.Lam (x, body) ->
      (* V = <0,0> ⊔ ⨆ { esc of z | z free in the lambda } (section 3.4);
         globals contribute <0,0>. *)
      let fvs =
        match List.assq_opt e ctx.fv_cache with
        | Some fvs -> fvs
        | None ->
            let fvs = Tast.free_vars e in
            ctx.fv_cache <- (e, fvs) :: ctx.fv_cache;
            fvs
      in
      let esc =
        List.fold_left
          (fun acc z ->
            match Env.find_opt z env with
            | Some v -> Besc.join acc (Dvalue.total_esc v)
            | None -> acc)
          Besc.zero fvs
      in
      Dvalue.v ~ty:e.Tast.ty ~esc ~app:(fun y -> eval ctx (Env.add x y env) body)
  | Tast.If (_c, t, f) ->
      (* both branches may be taken at compile time *)
      Dvalue.join (eval ctx env t) (eval ctx env f)
  | Tast.Letrec (bs, body) ->
      let env' = solve_group ctx env bs in
      eval ctx env' body

(* Kleene iteration for a (nested) letrec group, Jacobi style: every
   right-hand side of round k+1 is evaluated under the round-k values. *)
and solve_group ctx env bs =
  let current =
    ref (List.map (fun (x, rhs) -> (x, Dvalue.bottom rhs.Tast.ty)) bs)
  in
  let build vals = List.fold_left (fun env (x, v) -> Env.add x v env) env vals in
  let rec iterate n =
    if n >= ctx.max_iters then (
      ctx.capped <- true;
      current := List.map (fun (x, rhs) -> (x, Dvalue.top ~d:(ctx.d ()) rhs.Tast.ty)) bs)
    else begin
      ctx.iters <- ctx.iters + 1;
      let envk = build !current in
      let next = List.map (fun (x, rhs) -> (x, eval ctx envk rhs)) bs in
      Dvalue.ensure_d (ctx.d ());
      let converged =
        List.for_all2 (fun (_, v_old) (_, v_new) -> Dvalue.equal v_old v_new) !current next
      in
      current := next;
      if not converged then iterate (n + 1)
    end
  in
  iterate 0;
  build !current

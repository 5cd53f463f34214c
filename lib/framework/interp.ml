(* The abstract interpreter: the semantic function [E] of section 3.4,
   written once for every analysis, in the Hudak–Young style the paper
   uses.  A value pairs a basic value with an abstract function;
   constants and primitives come from the domain's tables ([C]);
   variables are looked up locally or resolved through the solver's
   [global] hook; a lambda's basic value folds in what its free
   variables hold; a nested [letrec] group is solved by Jacobi-style
   Kleene iteration from bottom, every right-hand side of round k+1
   evaluated under the round-k values, and widened to [top] at the cap.
   The context holds no chain bound: [top] and the round test [equal]
   read it from the domain's installed state, which the solver raises
   with [ensure_d].

   A domain supplies only what differs between the analyses: its
   lattice and [apply], its [C] tables, how a lambda folds a captured
   value into its basic value, and whether a condition is evaluated.
   The escape domain never evaluates it — both branches may be taken at
   compile time, so §3.4 joins them; the flag domains evaluate it first
   and fold its flags into the result as observation evidence.  Hill and
   Spoto derive escape analysis the same way: one abstract
   interpretation, parameterized by its domain. *)

module Ty = Nml.Ty
module Tast = Nml.Tast
module Ast = Nml.Ast

module type DOMAIN = sig
  type value

  val bottom : Ty.t -> value
  val top : Ty.t -> value
  val join : value -> value -> value

  val equal : value -> value -> bool
  (** Convergence test of a nested [letrec] round. *)

  val apply : value -> value -> value
  val const_value : ty:Ty.t -> Ast.const -> value
  val prim_value : ty:Ty.t -> Ast.prim -> value

  type basic
  (** What a lambda's basic value accumulates from its captured values. *)

  val no_capture : basic
  val capture : basic -> value -> basic

  val lambda : ty:Ty.t -> basic -> (value -> value) -> value
  (** The value of a lambda with the folded captures and its body. *)

  val condition : (value -> value -> value) option
  (** [None]: a conditional joins its branches and never evaluates the
      condition.  [Some observe]: the condition is evaluated first and
      [observe cond result] folds it into the joined branches. *)
end

module Make (D : DOMAIN) : Spec.TRANSFER with type value := D.value = struct
  module Env = Map.Make (String)

  type ctx = {
    global : string -> Ty.t -> D.value;
    max_iters : int;
    mutable iters : int;
    mutable capped : bool;
    mutable fv_cache : (Tast.texpr * string list) list;
        (** free variables per lambda node (physical identity): a lambda
            is abstractly evaluated once per application of its
            enclosing function, so recomputing its free variables would
            dominate *)
  }

  let make_ctx ~global ~max_iters =
    { global; max_iters; iters = 0; capped = false; fv_cache = [] }

  let iterations ctx = ctx.iters
  let record_iteration ctx = ctx.iters <- ctx.iters + 1
  let capped ctx = ctx.capped
  let set_capped ctx = ctx.capped <- true

  let free_vars ctx e =
    match List.assq_opt e ctx.fv_cache with
    | Some fvs -> fvs
    | None ->
        let fvs = Tast.free_vars e in
        ctx.fv_cache <- (e, fvs) :: ctx.fv_cache;
        fvs

  let rec eval ctx env (e : Tast.texpr) =
    match e.Tast.desc with
    | Tast.Const c -> D.const_value ~ty:e.Tast.ty c
    | Tast.Prim p -> D.prim_value ~ty:e.Tast.ty p
    | Tast.Var x -> (
        match Env.find_opt x env with
        | Some v -> v
        | None -> ctx.global x e.Tast.ty)
    | Tast.App (f, a) ->
        let vf = eval ctx env f in
        let va = eval ctx env a in
        D.apply vf va
    | Tast.Lam (x, body) ->
        (* globals are not in [env] and capture nothing *)
        let basic =
          List.fold_left
            (fun acc z ->
              match Env.find_opt z env with
              | Some v -> D.capture acc v
              | None -> acc)
            D.no_capture (free_vars ctx e)
        in
        D.lambda ~ty:e.Tast.ty basic (fun y -> eval ctx (Env.add x y env) body)
    | Tast.If (c, t, f) -> (
        match D.condition with
        | None -> D.join (eval ctx env t) (eval ctx env f)
        | Some observe ->
            let vc = eval ctx env c in
            observe vc (D.join (eval ctx env t) (eval ctx env f)))
    | Tast.Letrec (bs, body) -> eval ctx (solve_group ctx env bs) body

  and solve_group ctx env bs =
    let build vals = List.fold_left (fun env (x, v) -> Env.add x v env) env vals in
    let rec iterate n current =
      if n >= ctx.max_iters then begin
        ctx.capped <- true;
        List.map (fun (x, rhs) -> (x, D.top rhs.Tast.ty)) bs
      end
      else begin
        ctx.iters <- ctx.iters + 1;
        let envk = build current in
        let next = List.map (fun (x, rhs) -> (x, eval ctx envk rhs)) bs in
        if List.for_all2 (fun (_, v_old) (_, v_new) -> D.equal v_old v_new) current next
        then next
        else iterate (n + 1) next
      end
    in
    build (iterate 0 (List.map (fun (x, rhs) -> (x, D.bottom rhs.Tast.ty)) bs))

  let transfer ctx tast = eval ctx Env.empty tast
end

module A = Nml.Ast
module Ir = Runtime.Ir
module An = Escape.Analysis

type stack_annotation = {
  func : string;
  arg : int;
  levels : int;
  arena : int;
  loc : Nml.Loc.t;  (** surface position of the annotated literal *)
}

type block_annotation = {
  consumer : string;
  producer : string;
  specialized : string;
  arena : int;
  loc : Nml.Loc.t;  (** surface position of the producer call *)
}

type report = {
  stack : stack_annotation list;
  block : block_annotation list;
  pretenure_sites : int;
      (** cons sites retargeted to [Ir.Pretenured]: escape-doomed literal
          spines and the result spine of main *)
}

(* Conses in result position build the result's top spine: the body
   itself, conditional branches, letrec bodies, the body of an
   immediately applied lambda (the let sugar) and the tail of a
   result-position cons. *)
let rec mark_result ~arena e =
  match e with
  | A.App (_, A.App (_, A.Prim (_, A.Cons), hd), tl) ->
      Ir.App (Ir.App (Ir.ConsAt (Ir.Arena arena), Ir.of_ast hd), mark_result ~arena tl)
  | A.If (_, c, t, f) -> Ir.If (Ir.of_ast c, mark_result ~arena t, mark_result ~arena f)
  | A.Letrec (_, bs, body) ->
      Ir.Letrec (List.map (fun (x, b) -> (x, Ir.of_ast b)) bs, mark_result ~arena body)
  | A.App (_, A.Lam (_, x, b), a) -> Ir.App (Ir.Lam (x, mark_result ~arena b), Ir.of_ast a)
  | e -> Ir.of_ast e

let has_result_cons rhs =
  let _, body = Shape.strip_lams rhs in
  let rec walk = function
    | A.App (_, A.App (_, A.Prim (_, A.Cons), _), _) -> true
    | A.If (_, _, t, f) -> walk t || walk f
    | A.Letrec (_, _, body) -> walk body
    | A.App (_, A.Lam (_, _, b), _) -> walk b
    | _ -> false
  in
  walk body

let specialize ~arena name rhs =
  let params, body = Shape.strip_lams rhs in
  let body = A.subst_var name (name ^ "_blk") body in
  let marked = mark_result ~arena body in
  List.fold_right (fun x acc -> Ir.Lam (x, acc)) params marked

(* Rewrites the top [levels] spine levels of a literal onto [target]. *)
let rec annotate_literal ~target ~levels ~recurse e =
  if levels <= 0 || not (Shape.is_literal_list e) then recurse e
  else
    match e with
    | A.Const (_, A.Cnil) -> Ir.Const A.Cnil
    | A.App (_, A.App (_, A.Prim (_, A.Cons), hd), tl) ->
        Ir.App
          ( Ir.App
              ( Ir.ConsAt target,
                annotate_literal ~target ~levels:(levels - 1) ~recurse hd ),
            annotate_literal ~target ~levels ~recurse tl )
    | _ -> recurse e

(* Conses building the top spine of main's result escape by definition —
   the program result is live until the very end.  Retargeting them to
   [Ir.Pretenured] lets a generational heap tenure them at birth instead
   of promoting them out of the nursery one collection later.  Arena-
   targeted sites are left alone (regions already bypass the nursery). *)
let rec pretenure_result count e =
  match e with
  | Ir.App (Ir.App ((Ir.Prim A.Cons | Ir.ConsAt Ir.Heap), hd), tl) ->
      incr count;
      Ir.App (Ir.App (Ir.ConsAt Ir.Pretenured, hd), pretenure_result count tl)
  | Ir.If (c, t, f) -> Ir.If (c, pretenure_result count t, pretenure_result count f)
  | Ir.Letrec (bs, body) -> Ir.Letrec (bs, pretenure_result count body)
  | Ir.App (Ir.Lam (x, b), a) -> Ir.App (Ir.Lam (x, pretenure_result count b), a)
  | Ir.WithArena (k, i, b) -> Ir.WithArena (k, i, pretenure_result count b)
  | e -> e

let annotate ~stack ~block ?(pretenure = false) t (surface : Nml.Surface.t) =
  let defs = surface.Nml.Surface.defs in
  let def_names = List.map fst defs in
  let stack_anns = ref [] in
  let block_anns = ref [] in
  let pret_sites = ref 0 in
  let specialized = ref [] in
  let next_region = ref 0 in
  let block_arena_of = Hashtbl.create 8 in
  let next_block = ref 1000 in
  let block_arena_for g =
    match Hashtbl.find_opt block_arena_of g with
    | Some a -> a
    | None ->
        let a = !next_block in
        incr next_block;
        Hashtbl.add block_arena_of g a;
        let rhs = List.assoc g defs in
        specialized := (g ^ "_blk", specialize ~arena:a g rhs) :: !specialized;
        a
  in
  (* [bound] holds the names the binders enclosing a subterm of main
     rebind: a definition's name among them denotes the local, not the
     definition. *)
  let is_global bound x = List.mem x def_names && not (List.mem x bound) in
  (* [An.local] types the call in the program's global scope, so it
     judges only calls that name nothing but definitions of the solver's
     program no enclosing binder shadows: a call whose arguments mention a
     lambda- or let-bound local, or a copy reuse primed, keeps no spine. *)
  let is_def = Nml.Infer.is_def (Escape.Fixpoint.program t) in
  let keep_of bound f args j =
    let judged x = is_def x && not (List.mem x bound) in
    if List.for_all judged (f :: List.concat_map A.free_vars args) then
      An.non_escaping_top_spines (An.local t f args ~arg:(j + 1))
    else 0
  in
  let rec go bound e =
    match e with
    | A.Const (_, c) -> Ir.Const c
    | A.Prim (_, p) -> Ir.Prim p
    | A.Var (_, x) -> Ir.Var x
    | A.Lam (_, x, b) -> Ir.Lam (x, go (x :: bound) b)
    | A.If (_, c, th, el) -> Ir.If (go bound c, go bound th, go bound el)
    | A.Letrec (_, bs, body) ->
        let bound = List.map fst bs @ bound in
        Ir.Letrec (List.map (fun (x, b) -> (x, go bound b)) bs, go bound body)
    | A.App (_, _, _) -> (
        let head, args = Shape.head_and_args e in
        match head with
        | A.Var (_, f) when is_global bound f ->
            let region = ref None in
            let blocks = ref [] in
            let arg_ir j a =
              if (stack || pretenure) && Shape.is_literal_list a then begin
                let keep = keep_of bound f args j in
                let levels = if stack then min keep (Shape.literal_depth a) else 0 in
                if stack && levels >= 1 then begin
                  let arena =
                    match !region with
                    | Some r -> r
                    | None ->
                        let r = !next_region in
                        incr next_region;
                        region := Some r;
                        r
                  in
                  stack_anns :=
                    { func = f; arg = j + 1; levels; arena; loc = A.loc a }
                    :: !stack_anns;
                  annotate_literal ~target:(Ir.Arena arena) ~levels ~recurse:(go bound) a
                end
                else if pretenure && keep = 0 && Shape.literal_depth a >= 1 then begin
                  (* the dual of the stack verdict: this literal's spine
                     escapes into the result, so it will survive every
                     nursery collection — tenure it at birth *)
                  let depth = Shape.literal_depth a in
                  pret_sites := !pret_sites + depth;
                  annotate_literal ~target:Ir.Pretenured ~levels:depth ~recurse:(go bound) a
                end
                else go bound a
              end
              else if block then begin
                match Shape.head_and_args a with
                | A.Var (_, g), (_ :: _ as gargs)
                  when is_global bound g
                       && has_result_cons (List.assoc g defs)
                       && keep_of bound f args j >= 1 ->
                    let arena = block_arena_for g in
                    blocks := (g, arena, A.loc a) :: !blocks;
                    List.fold_left
                      (fun acc ga -> Ir.App (acc, go bound ga))
                      (Ir.Var (g ^ "_blk"))
                      gargs
                | _ -> go bound a
              end
              else go bound a
            in
            let call =
              List.fold_left
                (fun (acc, j) a -> (Ir.App (acc, arg_ir j a), j + 1))
                (Ir.Var f, 0) args
              |> fst
            in
            let call =
              match !region with
              | Some r -> Ir.WithArena (Ir.Region, r, call)
              | None -> call
            in
            List.fold_left
              (fun acc (g, arena, gloc) ->
                block_anns :=
                  {
                    consumer = f;
                    producer = g;
                    specialized = g ^ "_blk";
                    arena;
                    loc = gloc;
                  }
                  :: !block_anns;
                Ir.WithArena (Ir.Block, arena, acc))
              call !blocks
        | _ -> List.fold_left (fun acc a -> Ir.App (acc, go bound a)) (go bound head) args)
  in
  let main' = go [] surface.Nml.Surface.main in
  let main' = if pretenure then pretenure_result pret_sites main' else main' in
  let defs_ir = List.map (fun (n, rhs) -> (n, Ir.of_ast rhs)) defs in
  let all_defs = defs_ir @ List.rev !specialized in
  let prog = match all_defs with [] -> main' | ds -> Ir.Letrec (ds, main') in
  ( prog,
    {
      stack = List.rev !stack_anns;
      block = List.rev !block_anns;
      pretenure_sites = !pret_sites;
    } )

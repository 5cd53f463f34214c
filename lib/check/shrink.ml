(* Structural shrinking of nml programs, for minimizing soundness
   counterexamples.

   A candidate is obtained by one rewrite — replacing a node by one of
   its children, halving an integer literal, dropping a letrec binding,
   or collapsing a subtree to [nil]/[0] — and is kept only if the result
   still typechecks, so every candidate is a program the harness can
   meaningfully re-run.  Every rewrite strictly decreases either the AST
   size or the magnitude of a literal, so greedy minimization
   terminates. *)

module Ast = Nml.Ast

let rec shrinks (e : Ast.expr) : Ast.expr Seq.t =
  let open Ast in
  let sub rebuild child = Seq.map rebuild (shrinks child) in
  let self =
    match e with
    | Const (_, Cint n) when n <> 0 ->
        List.to_seq (int 0 :: (if n / 2 <> 0 then [ int (n / 2) ] else []))
    | Const _ | Var _ | Prim _ -> Seq.empty
    | App (_, f, a) -> List.to_seq [ f; a ]
    | Lam (_, _, b) -> List.to_seq [ b ]
    | If (_, _, t, f) -> List.to_seq [ t; f ]
    | Letrec (_, _, body) -> List.to_seq [ body ]
  in
  let children =
    match e with
    | Const _ | Var _ | Prim _ -> Seq.empty
    | App (l, f, a) ->
        Seq.append
          (sub (fun f' -> App (l, f', a)) f)
          (sub (fun a' -> App (l, f, a')) a)
    | Lam (l, x, b) -> sub (fun b' -> Lam (l, x, b')) b
    | If (l, c, t, f) ->
        Seq.append
          (sub (fun c' -> If (l, c', t, f)) c)
          (Seq.append
             (sub (fun t' -> If (l, c, t', f)) t)
             (sub (fun f' -> If (l, c, t, f')) f))
    | Letrec (l, bs, body) ->
        let drop_one =
          if List.length bs <= 1 then Seq.empty
          else
            Seq.init (List.length bs) (fun i ->
                Letrec (l, List.filteri (fun j _ -> j <> i) bs, body))
        in
        let in_rhs =
          Seq.concat
            (Seq.init (List.length bs) (fun i ->
                 let x, rhs = List.nth bs i in
                 sub
                   (fun rhs' ->
                     Letrec
                       (l, List.mapi (fun j b -> if j = i then (x, rhs') else b) bs, body))
                   rhs))
        in
        Seq.append drop_one (Seq.append in_rhs (sub (fun b' -> Letrec (l, bs, b')) body))
  in
  let leaves = if size e > 1 then List.to_seq [ nil; int 0 ] else Seq.empty in
  (* big jumps first so greedy minimization converges in few steps *)
  Seq.append self (Seq.append children leaves)

let typechecks src =
  match Nml.Front.of_string ~file:"<candidate>" src with
  | _ -> true
  | exception e when Nml.Front.rejects e -> false

let candidates src =
  match Nml.Surface.of_string src with
  | exception _ -> []
  | s ->
      Nml.Surface.to_expr s |> shrinks
      |> Seq.map Nml.Pretty.to_string
      |> Seq.filter (fun s' -> (not (String.equal s' src)) && typechecks s')
      |> List.of_seq

let minimize ?(max_steps = 300) ~still_failing src =
  let rec go steps src =
    if steps >= max_steps then src
    else
      match List.find_opt still_failing (candidates src) with
      | Some smaller -> go (steps + 1) smaller
      | None -> src
  in
  go 0 src

let iter src yield = List.iter yield (candidates src)

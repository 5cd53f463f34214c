module Ty = Nml.Ty
module Ast = Nml.Ast

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

(* The escape domain's hooks of the shared abstract interpreter
   ({!Framework.Interp}). *)

(* V = <0,0> ⊔ ⨆ { esc of z | z free in the lambda } (section 3.4) *)
type basic = Besc.t

let no_capture = Besc.zero
let capture acc v = Besc.join acc (Dvalue.total_esc v)
let lambda ~ty esc app = Dvalue.v ~ty ~esc ~app

(* both branches may be taken at compile time: the condition is never
   evaluated *)
let condition = None

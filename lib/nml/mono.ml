exception Too_many_instances

type result = {
  program : Surface.t;
  instances : (string * string * Ty.t) list;
}

module S = Set.Make (String)

let monomorphize ?(max_instances = 1000) (prog : Infer.program) =
  let def_names = List.map fst prog.Infer.schemes in
  let is_def = Infer.is_def prog in
  (* (original, instance key) -> specialized name *)
  let names : (string * string, string) Hashtbl.t = Hashtbl.create 16 in
  let used = ref (S.of_list def_names) in
  let per_def_count : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  (* worklist of (def, ground instance) still to specialize *)
  let pending = Queue.create () in
  let name_for def inst =
    let key = (def, Ty.key inst) in
    match Hashtbl.find_opt names key with
    | Some n -> n
    | None ->
        if Hashtbl.length names >= max_instances then raise Too_many_instances;
        let count = 1 + Option.value ~default:0 (Hashtbl.find_opt per_def_count def) in
        Hashtbl.replace per_def_count def count;
        let rec fresh candidate i =
          if S.mem candidate !used then fresh (Printf.sprintf "%s_m%d" def i) (i + 1)
          else candidate
        in
        let n =
          if count = 1 then def else fresh (Printf.sprintf "%s_m%d" def count) (count + 1)
        in
        used := S.add n !used;
        Hashtbl.replace names key n;
        order := (def, n, inst) :: !order;
        Queue.add (def, inst, n) pending;
        n
  in
  (* Converts a ground typed tree back to surface syntax, renaming every
     free occurrence of a definition to its instance's copy. *)
  let rec conv bound (e : Tast.texpr) : Ast.expr =
    match e.Tast.desc with
    | Tast.Const c -> Ast.Const (e.Tast.loc, c)
    | Tast.Prim p -> Ast.Prim (e.Tast.loc, p)
    | Tast.Var x ->
        if (not (S.mem x bound)) && is_def x then
          Ast.Var (e.Tast.loc, name_for x e.Tast.ty)
        else Ast.Var (e.Tast.loc, x)
    | Tast.App (f, a) -> Ast.App (e.Tast.loc, conv bound f, conv bound a)
    | Tast.Lam (x, b) -> Ast.Lam (e.Tast.loc, x, conv (S.add x bound) b)
    | Tast.If (c, t, f) -> Ast.If (e.Tast.loc, conv bound c, conv bound t, conv bound f)
    | Tast.Letrec (bs, body) ->
        let bound = List.fold_left (fun acc (x, _) -> S.add x acc) bound bs in
        Ast.Letrec
          ( e.Tast.loc,
            List.map (fun (x, b) -> (x, conv bound b)) bs,
            conv bound body )
  in
  let specialized = Hashtbl.create 16 in
  let drain () =
    while not (Queue.is_empty pending) do
      let def, inst, sname = Queue.pop pending in
      let tast = Infer.instantiate_def prog def (Some inst) in
      Hashtbl.replace specialized sname (conv S.empty tast)
    done
  in
  let main_ast = conv S.empty (Infer.main_ground prog) in
  drain ();
  (* keep library definitions nobody reached, at their simplest instance *)
  List.iter
    (fun name ->
      if not (Hashtbl.mem per_def_count name) then begin
        let tast = Infer.instantiate_def prog name None in
        ignore (name_for name tast.Tast.ty);
        drain ()
      end)
    def_names;
  (* emit copies grouped by original definition order, then discovery;
     [!order] is newest first, so consing builds each group oldest first *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (d, n, _) ->
      Hashtbl.replace groups d (n :: Option.value ~default:[] (Hashtbl.find_opt groups d)))
    !order;
  let defs =
    List.concat_map
      (fun def ->
        List.map
          (fun n -> (n, Hashtbl.find specialized n))
          (Option.value ~default:[] (Hashtbl.find_opt groups def)))
      def_names
  in
  { program = { Surface.defs; main = main_ast }; instances = List.rev !order }

let run ?max_instances surface = monomorphize ?max_instances (Infer.infer_program surface)

exception Too_many_instances

type result = {
  program : Surface.t;
  instances : (string * string * Ty.t) list;
  typed : Infer.program;
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
  (* Renames every free occurrence of a definition in a ground typed
     tree to its instance's copy.  Copies are numbered in the order this
     walk meets them: an application's argument before its function, a
     conditional's else branch first, a letrec's body before its
     bindings. *)
  let rec conv bound (e : Tast.texpr) =
    let desc =
      match e.Tast.desc with
      | Tast.Var x when (not (S.mem x bound)) && is_def x -> Tast.Var (name_for x e.Tast.ty)
      | (Tast.Const _ | Tast.Prim _ | Tast.Var _) as d -> d
      | Tast.App (f, a) ->
          let a = conv bound a in
          Tast.App (conv bound f, a)
      | Tast.Lam (x, b) -> Tast.Lam (x, conv (S.add x bound) b)
      | Tast.If (c, t, f) ->
          let f = conv bound f in
          let t = conv bound t in
          Tast.If (conv bound c, t, f)
      | Tast.Letrec (bs, body) ->
          let bound = List.fold_left (fun acc (x, _) -> S.add x acc) bound bs in
          let body = conv bound body in
          Tast.Letrec (List.map (fun (x, b) -> (x, conv bound b)) bs, body)
    in
    { e with Tast.desc }
  in
  let specialized = Hashtbl.create 16 in
  let drain () =
    while not (Queue.is_empty pending) do
      let def, inst, sname = Queue.pop pending in
      let tast = Infer.instantiate_def prog def (Some inst) in
      Hashtbl.replace specialized sname (conv S.empty tast)
    done
  in
  let main = conv S.empty (Infer.main_ground prog) in
  drain ();
  (* keep library definitions nobody reached, at their simplest instance *)
  List.iter
    (fun name ->
      if not (Hashtbl.mem per_def_count name) then begin
        ignore (name_for name (Infer.simplest_instance prog name));
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
  let typed = Infer.of_ground_defs defs main in
  { program = typed.Infer.surface; instances = List.rev !order; typed }

let run ?max_instances surface = monomorphize ?max_instances (Infer.infer_program surface)

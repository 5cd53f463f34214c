module Scc = struct
  let compute ~n ~succs =
    let index = Array.make (max n 1) (-1) in
    let lowlink = Array.make (max n 1) 0 in
    let on_stack = Array.make (max n 1) false in
    let stack = ref [] in
    let next = ref 0 in
    let comps = ref [] in
    let rec strong v =
      index.(v) <- !next;
      lowlink.(v) <- !next;
      incr next;
      stack := v :: !stack;
      on_stack.(v) <- true;
      List.iter
        (fun w ->
          if w >= 0 && w < n then
            if index.(w) < 0 then begin
              strong w;
              lowlink.(v) <- min lowlink.(v) lowlink.(w)
            end
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
        (succs v);
      if lowlink.(v) = index.(v) then begin
        let rec pop acc =
          match !stack with
          | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              if w = v then w :: acc else pop (w :: acc)
          | [] -> acc
        in
        comps := pop [] :: !comps
      end
    in
    for v = 0 to n - 1 do
      if index.(v) < 0 then strong v
    done;
    (* Tarjan emits a component only after everything reachable from it,
       so reversing the emission accumulator yields dependencies first. *)
    List.rev !comps
end

type t = {
  names : string array;  (* program order *)
  edges : int list array;  (* i references edges.(i) *)
  by_name : (string, int) Hashtbl.t;
}

let of_program (prog : Infer.program) =
  let names = Array.of_list (List.map fst prog.Infer.schemes) in
  let n = Array.length names in
  let by_name = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace by_name name i) names;
  let edges =
    Array.map
      (fun name ->
        List.filter_map
          (fun x -> Hashtbl.find_opt by_name x)
          (Ast.free_vars (Infer.def_rhs prog name)))
      names
  in
  { names; edges; by_name }

let defs t = Array.to_list t.names

let refs t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> []
  | Some i -> List.map (fun j -> t.names.(j)) t.edges.(i)

let sccs t =
  Scc.compute ~n:(Array.length t.names) ~succs:(fun i -> t.edges.(i))
  |> List.map (List.map (fun i -> t.names.(i)))

let is_recursive t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> false
  | Some i ->
      List.mem i t.edges.(i)
      || List.exists
           (fun comp -> List.length comp > 1 && List.mem i comp)
           (Scc.compute ~n:(Array.length t.names) ~succs:(fun j -> t.edges.(j)))

(* The pending-application memo: see pending.mli.

   An entry holds the application's value while and after it is
   computed, whether it is complete, whether its computation was
   re-entered in the current round, and its half of the dependency
   tracker, which records what the computation read and goes stale for
   good when any of that moves on. *)

module Ty = Nml.Ty

type 'b key = Base of 'b | Fun of int | Prod of 'b * 'b key * 'b key

type 'v domain = {
  bottom : Ty.t -> 'v;
  top : Ty.t -> 'v;
  join : 'v -> 'v -> 'v;
  equal : 'v -> 'v -> bool;
  with_ty : Ty.t -> 'v -> 'v;
}

type 'v entry = {
  mutable value : 'v;
  mutable complete : bool;
  mutable reentered : bool;
  deps : Deps.entry;
}

type ('v, 'b) t = {
  table : (int * 'b key, 'v entry) Hashtbl.t;
  mutable higher : int list;
      (* ids of the functions with a pending entry keyed on a function id *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
}

let create size =
  { table = Hashtbl.create size; higher = []; hits = 0; misses = 0; invalidated = 0 }

let rec holds_fun = function
  | Base _ -> false
  | Fun _ -> true
  | Prod (_, a, b) -> holds_fun a || holds_fun b

let result_ty ty =
  match Ty.shape ty with
  | Ty.Sarrow (_, b) -> b
  | Ty.Sbase | Ty.Sprod _ -> ty (* a domain applying a non-function raises before using it *)

let rec apply dom m key ty body x =
  match Hashtbl.find_opt m.table key with
  | Some e when e.complete ->
      if not (Deps.stale e.deps) then begin
        m.hits <- m.hits + 1;
        (* a hit stands in for the computation: whatever encloses this
           application read what the entry read *)
        Deps.use e.deps;
        e.value
      end
      else begin
        (* something the entry depended on changed: discard just this
           entry and recompute against the current values *)
        m.invalidated <- m.invalidated + 1;
        Hashtbl.remove m.table key;
        apply dom m key ty body x
      end
  | Some e ->
      (* re-entered while computing: yield the approximation *)
      e.reentered <- true;
      e.value
  | None ->
      let id, k = key in
      let rty = result_ty ty in
      let higher = holds_fun k in
      (* a second function-keyed entry of a function still pending on
         one: the key space is unbounded, so answer the safe top *)
      if higher && List.mem id m.higher then dom.top rty
      else begin
        m.misses <- m.misses + 1;
        let e =
          { value = dom.bottom rty; complete = false; reentered = false; deps = Deps.entry () }
        in
        Hashtbl.add m.table key e;
        let outer = m.higher in
        if higher then m.higher <- id :: outer;
        let rec loop n =
          e.reentered <- false;
          let r = body x in
          if n = 0 && not e.reentered then e.value <- dom.with_ty rty r
          else
            let widened = dom.join e.value r in
            if e.reentered && not (dom.equal widened e.value) then begin
              e.value <- widened;
              if n >= 64 then e.value <- dom.top rty else loop (n + 1)
            end
            else e.value <- widened
        in
        (* the computation runs in the entry's frame; an aborted one is
           dropped, and what it read lands in the enclosing frame *)
        (try Deps.run e.deps loop 0
         with exn ->
           Hashtbl.remove m.table key;
           m.higher <- outer;
           raise exn);
        m.higher <- outer;
        e.complete <- true;
        e.value
      end

let entries m = Hashtbl.fold (fun _ e acc -> if e.complete then e.deps :: acc else acc) m.table []
let stats m = (m.hits, m.misses)
let invalidations m = m.invalidated

let reset_stats m =
  m.hits <- 0;
  m.misses <- 0;
  m.invalidated <- 0

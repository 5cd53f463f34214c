module Ty = Nml.Ty

type t = {
  id : int;
  ty : Ty.t;
  esc : Besc.t;
  app : t -> t;
  prod : (t * t) option;
  direct : bool;
}

exception Err_applied

let err _ = raise Err_applied

(* Value ids are process-global and atomic: they are pure identity tags
   (the application memo and [key_of] rely on their uniqueness), so two
   solver states — even in different domains — must never mint the same
   id.  Everything else mutable is per-{!state}. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let make ~prod ~ty ~esc ~app = { id = fresh_id (); ty; esc; app; prod; direct = false }
let v ~ty ~esc ~app = make ~prod:None ~ty ~esc ~app
let direct ~ty ~esc ~app = { id = fresh_id (); ty; esc; app; prod = None; direct = true }
let base ~ty esc = v ~ty ~esc ~app:err
let pair ~ty ~esc (a, b) = make ~prod:(Some (a, b)) ~ty ~esc ~app:err

let with_esc esc t =
  if Besc.equal esc t.esc then t else { t with id = fresh_id (); esc }

let with_ty ty t = { t with ty }

(* ---- application memo entries ------------------------------------------ *)

(* A memoized application: its value while and after it is computed, and
   its half of the dependency tracker ([Framework.Deps]), which records
   what the computation read and goes stale for good when any of that
   moves on. *)
module Deps = Framework.Deps

type centry = {
  mutable value : t;
  mutable complete : bool;
  mutable reentered : bool;
  deps : Deps.entry;
}

(* ---- solver state --------------------------------------------------------- *)

(* Everything mutable the application engine works over, hoisted out of
   module-level globals so each solver owns one and two solvers — in one
   domain or in different domains — cannot interfere.  The members:

   - [d]: the chain bound, the largest spine count seen so far;
   - [intern_table]: probe/worst-case value interning (one physical value,
     hence one id, per (kind, esc, type));
   - [cache]: the application memo;
   - [probe_table]: probe families per (d, type);
   - hit/miss/invalidation counters. *)

type arg_key = Kbase of Besc.t | Kfun of int | Kprod of Besc.t * arg_key * arg_key

type state = {
  mutable d : int;
  intern_table : (string, t) Hashtbl.t;
  cache : (int * arg_key, centry) Hashtbl.t;
  probe_table : (int * string, t list) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
}

let create_state () =
  {
    d = 0;
    intern_table = Hashtbl.create 64;
    cache = Hashtbl.create 4096;
    probe_table = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    invalidated = 0;
  }

(* The ambient state is domain-local: a domain that never installs a
   state (unit tests poking at values directly, the kleene trace) gets a
   private default, and worker domains of the batch driver are
   shared-nothing by construction. *)
let ambient : state Domain.DLS.key = Domain.DLS.new_key create_state
let current_state () = Domain.DLS.get ambient

let with_state s f =
  let old = Domain.DLS.get ambient in
  Domain.DLS.set ambient s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient old) f

(* ---- chain bound ------------------------------------------------------- *)

let ensure_d d =
  let st = current_state () in
  if d > st.d then st.d <- d

let current_d () = (current_state ()).d

(* ---- interning ----------------------------------------------------------- *)

(* Probe and worst-case values are deterministic in (esc, type), so
   repeated constructions can share one physical value — and therefore
   one [id], which is what lets [equal]/[leq] and the escape tests hit
   the application memo across passes and across queries.  Keys are
   built from [Ty.key] (equal exactly when the printed types are) and a
   short tag per basic value, without going through [Format]. *)

let besc_tag = function Besc.Zero -> "z" | Besc.One i -> string_of_int i

let interned key build =
  let st = current_state () in
  match Hashtbl.find_opt st.intern_table key with
  | Some v -> v
  | None ->
      let v = build () in
      Hashtbl.add st.intern_table key v;
      v

(* ---- lattice constants --------------------------------------------------- *)

let rec bottom ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty Besc.bottom
  | Ty.Sarrow (_, b) -> direct ~ty ~esc:Besc.bottom ~app:(fun _ -> bottom b)
  | Ty.Sprod (a, b) -> pair ~ty ~esc:Besc.bottom (bottom a, bottom b)

let rec top ~d ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty (Besc.top ~d)
  | Ty.Sarrow (_, b) -> v ~ty ~esc:(Besc.top ~d) ~app:(fun _ -> top ~d b)
  | Ty.Sprod (a, b) -> pair ~ty ~esc:(Besc.top ~d) (top ~d a, top ~d b)

(* [saturate ~esc ty]: the conservative value "something with containment
   [esc] of unknown structure": functions absorb their arguments'
   containment, pair components inherit [esc].  Used when a component is
   projected out of a value that carries no structural information. *)
let rec saturate ~esc ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow (_, b) ->
      v ~ty ~esc ~app:(fun x -> saturate ~esc:(Besc.join esc (total_esc x)) b)
  | Ty.Sprod (a, b) -> pair ~ty ~esc (saturate ~esc a, saturate ~esc b)

(* Everything of the interesting object contained anywhere in the value's
   (product) structure. *)
and total_esc t =
  match t.prod with
  | None -> t.esc
  | Some (a, b) -> Besc.join t.esc (Besc.join (total_esc a) (total_esc b))

let prod_tys ty =
  match Ty.shape ty with
  | Ty.Sprod (a, b) -> (a, b)
  | Ty.Sbase | Ty.Sarrow _ -> invalid_arg "Dvalue: projection from a non-pair value"

let fst_of t =
  match t.prod with
  | Some (a, _) -> a
  | None -> saturate ~esc:t.esc (fst (prod_tys t.ty))

let snd_of t =
  match t.prod with
  | Some (_, b) -> b
  | None -> saturate ~esc:t.esc (snd (prod_tys t.ty))

(* ---- worst-case functions ---------------------------------------------- *)

(* [w_stage acc ty]: the value W yields after consuming arguments whose
   containment joins to [acc]. *)
let rec w_stage acc ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty acc
  | Ty.Sarrow (_, b) ->
      v ~ty ~esc:acc ~app:(fun x -> w_stage (Besc.join acc (total_esc x)) b)
  | Ty.Sprod _ -> saturate ~esc:acc ty

let w_value ~esc ty =
  interned ("w:" ^ besc_tag esc ^ ":" ^ Ty.key ty)
  @@ fun () ->
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow (_, b) -> v ~ty ~esc ~app:(fun x -> w_stage (total_esc x) b)
  | Ty.Sprod _ -> saturate ~esc ty

(* Probe argument values for the global test: each level of the structure
   is marked with its own spine count (the interesting case) or <0,0>
   (the boring case); function components are worst-case. *)
let rec probe_arg ~interesting ty =
  let esc = if interesting then Besc.one (Ty.spines ty) else Besc.zero in
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow _ -> w_value ~esc ty
  | Ty.Sprod (a, b) ->
      pair ~ty ~esc (probe_arg ~interesting a, probe_arg ~interesting b)

let interesting ty =
  interned ("pi:" ^ Ty.key ty) (fun () -> probe_arg ~interesting:true ty)

let boring ty =
  interned ("pb:" ^ Ty.key ty) (fun () -> probe_arg ~interesting:false ty)

(* Local-test marking (section 4.2): keep the value's actual behaviour
   but replace its containment — every structural level gets its own
   spine count (interesting) or <0,0> (boring). *)
let rec mark ~interesting t =
  let esc = if interesting then Besc.one (Ty.spines t.ty) else Besc.zero in
  match t.prod with
  | None -> with_esc esc t
  | Some (a, b) ->
      make
        ~prod:(Some (mark ~interesting a, mark ~interesting b))
        ~ty:t.ty ~esc ~app:t.app

let mark_interesting t = mark ~interesting:true t
let mark_boring t = mark ~interesting:false t

(* Component-resolved tests: only the sub-structure at [path] is the
   interesting object. *)
type component = Cfst | Csnd

let rec probe_component ~path ty =
  interned
    ("pc:"
    ^ String.concat "" (List.map (function Cfst -> "f" | Csnd -> "s") path)
    ^ ":" ^ Ty.key ty)
  @@ fun () ->
  match (path, Ty.shape ty) with
  | [], _ -> probe_arg ~interesting:true ty
  | Cfst :: rest, Ty.Sprod (a, b) ->
      pair ~ty ~esc:Besc.zero
        (probe_component ~path:rest a, probe_arg ~interesting:false b)
  | Csnd :: rest, Ty.Sprod (a, b) ->
      pair ~ty ~esc:Besc.zero
        (probe_arg ~interesting:false a, probe_component ~path:rest b)
  | _ :: _, (Ty.Sbase | Ty.Sarrow _) ->
      invalid_arg "Dvalue.probe_component: path does not name a pair component"

let rec mark_component ~path t =
  match path with
  | [] -> mark_interesting t
  | c :: rest ->
      let a = fst_of t and b = snd_of t in
      let a', b' =
        match c with
        | Cfst -> (mark_component ~path:rest a, mark_boring b)
        | Csnd -> (mark_boring a, mark_component ~path:rest b)
      in
      make ~prod:(Some (a', b')) ~ty:t.ty ~esc:Besc.zero ~app:t.app

(* ---- application engine ------------------------------------------------ *)

let rec key_of arg =
  match Ty.shape arg.ty with
  | Ty.Sbase -> Kbase arg.esc
  | Ty.Sarrow _ -> Kfun arg.id
  | Ty.Sprod _ -> Kprod (arg.esc, key_of (fst_of arg), key_of (snd_of arg))

(* Probe values are cached per (bound, type) so repeated comparisons apply
   the same values and hit the application cache. *)
let rec probes ty =
  let st = current_state () in
  let d = st.d in
  let k = (d, Ty.key ty) in
  match Hashtbl.find_opt st.probe_table k with
  | Some ps -> ps
  | None ->
      let escs = Besc.all ~d in
      let ps =
        match Ty.shape ty with
        | Ty.Sbase -> List.map (fun esc -> base ~ty esc) escs
        | Ty.Sarrow _ ->
            List.concat_map
              (fun esc -> [ w_value ~esc ty; with_esc esc (bottom ty) ])
              escs
        | Ty.Sprod (a, b) ->
            (* cross product of component probes, top esc zero (the pair
               cell itself carries its components' containment) *)
            List.concat_map
              (fun pa ->
                List.map (fun pb -> pair ~ty ~esc:Besc.zero (pa, pb)) (probes b))
              (probes a)
      in
      Hashtbl.add st.probe_table k ps;
      ps

let rec cmp ~op a b =
  op a.esc b.esc
  &&
  match Ty.shape a.ty with
  | Ty.Sbase -> true
  | Ty.Sarrow (arg, _) ->
      List.for_all (fun p -> cmp ~op (apply a p) (apply b p)) (probes arg)
  | Ty.Sprod _ ->
      cmp ~op (fst_of a) (fst_of b) && cmp ~op (snd_of a) (snd_of b)

and equal a b = cmp ~op:Besc.equal a b
and leq a b = cmp ~op:Besc.leq a b

and join a b =
  if a.id = b.id then a
  else
    let prod =
      match (a.prod, b.prod) with
      | None, None -> None
      | _ -> Some (join (fst_of a) (fst_of b), join (snd_of a) (snd_of b))
    in
    make ~prod ~ty:a.ty
      ~esc:(Besc.join a.esc b.esc)
      ~app:(fun x -> join (apply a x) (apply b x))

(* Pending analysis: a cyclic re-entry on the same (function, argument)
   returns the entry's current approximation; the outer activation then
   re-runs the body until the approximation is stable.  The domain is
   finite and all operators are monotone, so the loop terminates; the
   iteration cap is a defensive backstop that widens to top (the safe
   direction).  A first run that never re-entered stores the body's own
   value: bottom joined with it is the same function, and keeping its id
   keeps its own memo entries hitting.  A direct value cannot re-enter
   and is rebuilt with a fresh id wherever it occurs, so it skips all
   of this and runs as if inlined. *)
and apply f x = if f.direct then f.app x else memo_apply f x

and memo_apply f x =
  let st = current_state () in
  let key = (f.id, key_of x) in
  match Hashtbl.find_opt st.cache key with
  | Some e when e.complete ->
      if not (Deps.stale e.deps) then begin
        st.hits <- st.hits + 1;
        (* a hit stands in for the computation: whatever encloses this
           application read what the entry read *)
        Deps.use e.deps;
        e.value
      end
      else begin
        (* an entry this application depended on changed: discard just
           this memo and recompute against the current values *)
        st.invalidated <- st.invalidated + 1;
        Hashtbl.remove st.cache key;
        memo_apply f x
      end
  | Some e ->
      (* re-entered while computing: yield the approximation *)
      e.reentered <- true;
      e.value
  | None ->
      st.misses <- st.misses + 1;
      let result_ty =
        match Ty.shape f.ty with
        | Ty.Sarrow (_, b) -> b
        | Ty.Sbase | Ty.Sprod _ -> f.ty (* err will raise before the type is used *)
      in
      let e =
        { value = bottom result_ty; complete = false; reentered = false; deps = Deps.entry () }
      in
      Hashtbl.add st.cache key e;
      let rec loop n =
        e.reentered <- false;
        let r = f.app x in
        if n = 0 && not e.reentered then e.value <- with_ty result_ty r
        else
          let widened = join e.value r in
          if e.reentered && not (equal widened e.value) then begin
            e.value <- widened;
            if n >= 64 then e.value <- top ~d:st.d result_ty else loop (n + 1)
          end
          else e.value <- widened
      in
      (* the computation runs in the entry's frame; an aborted one is
         dropped, and what it read lands in the enclosing frame *)
      (try Deps.run e.deps loop 0
       with exn ->
         Hashtbl.remove st.cache key;
         raise exn);
      e.complete <- true;
      e.value

let apply_all f xs = List.fold_left apply f xs

let memo_entries () =
  Hashtbl.fold
    (fun _ e acc -> if e.complete then e.deps :: acc else acc)
    (current_state ()).cache []

let cache_stats () =
  let st = current_state () in
  (st.hits, st.misses)

let invalidations () = (current_state ()).invalidated

let reset_stats () =
  let st = current_state () in
  st.hits <- 0;
  st.misses <- 0;
  st.invalidated <- 0

let pp ppf t = Format.fprintf ppf "@[%a : %a@]" Besc.pp t.esc Ty.pp t.ty

(* The taint-flag domain behind the usage (strictness), spine-liveness
   and sharing Specs: the shared value structure, its application
   engine, and the [C] tables of its abstract primitives.  The walk over
   the monomorphized AST is not Flow's own: it is the abstract
   interpreter every analysis shares ({!Interp}), instantiated here with
   those tables, a lambda that joins the flags of what it captures, and
   a conditional that evaluates its condition and folds it into the
   result as observation evidence.

   A [Flow] value mirrors [Escape.Dvalue]'s shape discipline — the list
   collapse [D^{t list} = D^t] from the paper carries over, so a value
   follows {!Nml.Ty.shape}: base shapes carry only flags, arrow shapes a
   real abstract function, product shapes one value per component — but
   the lattice at each level is a small record of {e taint flags}
   supplied by the [FLAGS] parameter instead of a basic escape value.
   One flag (the [dep] bit) means "derives from / may retain the
   interesting argument"; the remaining flags are {e evidence} bits
   accumulated as primitives touch dep-marked structure (an element was
   observed, a head cell was read, the spine was traversed...).  The
   per-analysis meaning lives entirely in the FLAGS callbacks the
   abstract primitives invoke.

   Analyses ask questions exactly like the escape engine's global test:
   mark one parameter interesting ([probe]), every other boring
   ([bottom]), apply the definition's abstract value, and read the
   accumulated flags off the result.

   Application is the pending, memoized application every domain
   shares ({!Pending}): each (function id, argument key) pair gets a memo
   entry, a cyclic re-entry returns the entry's current approximation
   and the application is re-run until it stabilizes.  The memo has the
   escape domain's lifetime: it outlives solver evaluations, each entry
   is linked into the dependency tracker ({!Deps}), and a touched
   source stales exactly the entries that read it.  Flow keeps only
   the case of a value without a function component (a worst-case
   stage), which absorbs and exercises its argument.

   [Make] is generative: each instantiation owns private per-domain
   ambient state, and every solver installs its own [state], so two
   analyses — or two solvers of the same analysis in different domains —
   are shared-nothing, the same isolation contract [Escape.Dvalue]
   gives the escape solver. *)

module Ty = Nml.Ty
module Ast = Nml.Ast

(* process-global identity tags, exactly like [Dvalue]'s: globally
   unique ids make values safe to carry across states — a foreign value
   at worst misses a memo, it can never collide *)
let next_id = Atomic.make 0

module type FLAGS = sig
  val analysis_name : string

  type t

  val bot : t
  val top : t  (** must have the dep bit set: it bounds every value *)

  val join : t -> t -> t
  val equal : t -> t -> bool

  val dep : t -> bool
  val mark_dep : t -> t
  val detach : t -> t  (** clear the dep bit, keep the evidence bits *)

  (** Evidence callbacks, invoked on the flags of the value a primitive
      consumes (dep-marked input => evidence recorded): *)

  val observe : t -> t  (** used as a base datum: arith, comparison, condition *)

  val elem_view : spined:bool -> boxed:bool -> t -> t
  (** [car]/[label]: head cell read, element extracted.  Two facts about
      the element's type qualify the read: [spined] is true when the
      element carries list/tree structure of its own — an analysis
      tracking {e spine} retention may clear its dep bit otherwise (the
      element is not a spine); [boxed] is true when the element owns heap
      cells at all ({!Nml.Ty.owns_cells}: lists, trees, pairs, closures)
      — an analysis tracking {e cell sharing} may clear its dep bit only
      when even that is false (an [int] element cannot retain the
      argument's heap, but a pair element is one of its cells).  A usage
      analysis ignores both (the element is still the argument's data). *)

  val force_tail : t -> t  (** [cdr]/[left]/[right]: a spine cell traversed *)

  val force_test : t -> t  (** [null]/[isleaf]: spine inspected, result detached *)

  val force_proj : t -> t  (** [fst]/[snd]: the pair itself forced *)
end

module Make (F : FLAGS) () = struct
  let name = F.analysis_name

  type value = {
    id : int;  (* unique per constructed value; memo key for arrow shapes *)
    ty : Ty.t;
    flags : F.t;
    app : (value -> value) option;  (* arrow shapes only *)
    prod : (value * value) option;  (* product shapes only *)
  }

  let mk ~ty ~flags ~app ~prod =
    { id = Atomic.fetch_and_add next_id 1; ty; flags; app; prod }

  (* ---- per-solver state -------------------------------------------------- *)

  type state = (value, F.t) Pending.t

  (* a flag solver's memo is small and a compile keeps many flag solvers
     alive: 4,096 buckets, the escape memo's size, raised the run-reuse
     benchmark's peak heap by a fifth *)
  let create_state () = Pending.create 64
  let ambient : state Domain.DLS.key = Domain.DLS.new_key create_state
  let current_state () = Domain.DLS.get ambient

  let with_state s f =
    let prev = Domain.DLS.get ambient in
    Domain.DLS.set ambient s;
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

  (* flags carry no chain: the bound is never read *)
  let ensure_d _ = ()

  let memo_stats () = Pending.stats (current_state ())
  let invalidations () = Pending.invalidations (current_state ())
  let memo_entries () = Pending.entries (current_state ())

  (* ---- values ------------------------------------------------------------ *)

  (* worst-case evidence: a callee we know nothing about may do all of
     the above to its argument *)
  let worst f =
    F.observe
      (F.elem_view ~spined:true ~boxed:true
         (F.force_tail (F.force_test (F.force_proj f))))

  let rec total v =
    match v.prod with
    | None -> v.flags
    | Some (a, b) -> F.join v.flags (F.join (total a) (total b))

  let rec bottom ty =
    match Ty.shape ty with
    | Ty.Sbase -> mk ~ty ~flags:F.bot ~app:None ~prod:None
    | Ty.Sarrow (_, b) ->
        mk ~ty ~flags:F.bot ~app:(Some (fun _ -> bottom b)) ~prod:None
    | Ty.Sprod (t1, t2) ->
        mk ~ty ~flags:F.bot ~app:None ~prod:(Some (bottom t1, bottom t2))

  (* "something with these flags of unknown structure": functions absorb
     and fully exercise their arguments, components inherit the flags *)
  let rec saturate flags ty =
    match Ty.shape ty with
    | Ty.Sbase -> mk ~ty ~flags ~app:None ~prod:None
    | Ty.Sarrow (_, b) ->
        mk ~ty ~flags
          ~app:(Some (fun x -> saturate (F.join flags (worst (total x))) b))
          ~prod:None
    | Ty.Sprod (t1, t2) ->
        mk ~ty ~flags ~app:None ~prod:(Some (saturate flags t1, saturate flags t2))

  let top ty = saturate F.top ty

  let probe ty = saturate (F.mark_dep F.bot) ty
  (* the interesting argument: dep at every structural level *)

  let with_ty ty v = { v with ty }
  (* a value whose flags do not change is the same value: keeping its id
     keeps the memo keys of its applications stable *)
  let map_flags f v =
    let flags = f v.flags in
    if F.equal flags v.flags then v else { v with id = Atomic.fetch_and_add next_id 1; flags }

  let rec join a b =
    mk ~ty:a.ty
      ~flags:(F.join a.flags b.flags)
      ~app:
        (match (a.app, b.app) with
        | Some f, Some g -> Some (fun x -> join (f x) (g x))
        | (Some _ as f), None | None, (Some _ as f) -> f
        | None, None -> None)
      ~prod:
        (match (a.prod, b.prod) with
        | Some (a1, a2), Some (b1, b2) -> Some (join a1 b1, join a2 b2)
        | (Some _ as p), None | None, (Some _ as p) -> p
        | None, None -> None)

  (* The argument key: exact and finite for base and product shapes (a
     pair's own flags reach the result through [fst_of]/[snd_of], so they
     are part of it), the value id for arrow shapes. *)
  let rec key_of v =
    match v.prod with
    | Some (a, b) -> Pending.Prod (v.flags, key_of a, key_of b)
    | None -> ( match v.app with Some _ -> Pending.Fun v.id | None -> Pending.Base v.flags)

  let result_ty_of f =
    match Ty.repr f.ty with Ty.Arrow (_, b) -> b | _ -> f.ty

  (* Pending, memoized application ({!Pending}, shared with the escape
     domain); a value without a function component is applied here. *)
  let rec apply f x =
    match f.app with
    | None ->
        (* a worst-case stage lost the structure: absorb and exercise *)
        saturate (F.join f.flags (worst (total x))) (result_ty_of f)
    | Some g -> Pending.apply domain (current_state ()) (f.id, key_of x) f.ty g x

  and domain = { Pending.bottom; top; join; equal; with_ty }

  (* extensional comparison on the canonical probe set {interesting,
     bottom} per arrow level — finite and monotone, which is all the
     solver's convergence test needs *)
  and equal a b =
    F.equal a.flags b.flags
    && (match (a.prod, b.prod) with
       | Some (a1, a2), Some (b1, b2) -> equal a1 b1 && equal a2 b2
       | None, None -> true
       | _ -> false)
    &&
    match (a.app, b.app) with
    | None, None -> true
    | _ -> (
        match Ty.repr a.ty with
        | Ty.Arrow (arg, _) ->
            equal (apply a (probe arg)) (apply b (probe arg))
            && equal (apply a (bottom arg)) (apply b (bottom arg))
        | _ -> true)

  let apply_all f xs = List.fold_left apply f xs

  (* The global test on [f]'s value at instance [ty]: the flags of the
     result of applying it to a probe at parameter [arg] and bottoms
     elsewhere. *)
  let probe_at f ty ~arg =
    total
      (apply_all f
         (List.mapi
            (fun j aty -> if j = arg - 1 then probe aty else bottom aty)
            (Ty.arg_tys ty (Ty.params ty))))

  (* ---- abstract semantics ------------------------------------------------ *)

  let arrow_parts ty =
    match Ty.repr ty with
    | Ty.Arrow (a, b) -> (a, b)
    | _ -> invalid_arg "Flow: primitive occurrence with non-arrow type"

  let base ~ty flags = mk ~ty ~flags ~app:None ~prod:None
  let func ~ty ~flags app = mk ~ty ~flags ~app:(Some app) ~prod:None

  let fst_of p =
    match p.prod with
    | Some (a, _) -> map_flags (fun f -> F.join f (F.detach (F.force_proj p.flags))) a
    | None -> saturate (F.force_proj p.flags) p.ty

  let snd_of p =
    match p.prod with
    | Some (_, b) -> map_flags (fun f -> F.join f (F.detach (F.force_proj p.flags))) b
    | None -> saturate (F.force_proj p.flags) p.ty

  let const_value ~ty (c : Ast.const) =
    match c with
    | Ast.Cint _ | Ast.Cbool _ -> base ~ty F.bot
    | Ast.Cnil | Ast.Cleaf -> bottom ty

  let prim_value ~ty (p : Ast.prim) =
    let _t1, rest = arrow_parts ty in
    let binop_base () =
      (* λx.λy. base datum computed from both operands *)
      let _t2, tr = arrow_parts rest in
      func ~ty ~flags:F.bot (fun x ->
          func ~ty:rest ~flags:(total x) (fun y ->
              base ~ty:tr (F.detach (F.observe (F.join (total x) (total y))))))
    in
    match p with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Eq | Ast.Ne | Ast.Lt
    | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
        binop_base ()
    | Ast.Not ->
        func ~ty ~flags:F.bot (fun x ->
            base ~ty:rest (F.detach (F.observe (total x))))
    | Ast.Null | Ast.Isleaf ->
        func ~ty ~flags:F.bot (fun x ->
            base ~ty:rest (F.detach (F.force_test (total x))))
    | Ast.Cons ->
        (* the new cell contains both; building it touches neither *)
        let _t2, tr = arrow_parts rest in
        func ~ty ~flags:F.bot (fun x ->
            func ~ty:rest ~flags:(total x) (fun y -> with_ty tr (join x y)))
    | Ast.Car | Ast.Label ->
        (* element view of the collapsed list value; reading it accesses
           the head cell.  Whether the element still counts as retainable
           structure is the analysis' call (see [FLAGS.elem_view]). *)
        let spined = Ty.max_list_depth rest > 0 in
        let boxed = Ty.owns_cells rest in
        func ~ty ~flags:F.bot (fun x ->
            with_ty rest (map_flags (F.elem_view ~spined ~boxed) x))
    | Ast.Cdr | Ast.Left | Ast.Right ->
        (* the tail is as interesting as the list; taking it traverses a
           spine cell *)
        func ~ty ~flags:F.bot (fun x -> with_ty rest (map_flags F.force_tail x))
    | Ast.Pair ->
        let _t2, tr = arrow_parts rest in
        func ~ty ~flags:F.bot (fun x ->
            func ~ty:rest ~flags:(total x) (fun y ->
                mk ~ty:tr ~flags:F.bot ~app:None ~prod:(Some (x, y))))
    | Ast.Fst -> func ~ty ~flags:F.bot (fun p -> with_ty rest (fst_of p))
    | Ast.Snd -> func ~ty ~flags:F.bot (fun p -> with_ty rest (snd_of p))
    | Ast.Node ->
        let _t2, rest2 = arrow_parts rest in
        let _t3, tr = arrow_parts rest2 in
        func ~ty ~flags:F.bot (fun l ->
            func ~ty:rest ~flags:(total l) (fun x ->
                func ~ty:rest2
                  ~flags:(F.join (total l) (total x))
                  (fun r -> with_ty tr (join (join l x) r))))

  (* ---- Spec plumbing ----------------------------------------------------- *)

  include Interp.Make (struct
    type nonrec value = value

    let bottom = bottom
    let top = top
    let join = join
    let equal = equal
    let apply = apply
    let const_value = const_value
    let prim_value = prim_value

    (* the closure retains its free variables *)
    type basic = F.t

    let no_capture = F.bot
    let capture acc v = F.join acc (total v)
    let lambda ~ty flags app = func ~ty ~flags app

    (* unlike the escape semantics, the condition is consumed: its dep
       evidence becomes observation evidence on the result *)
    let condition =
      Some (fun vc r -> map_flags (fun fl -> F.join fl (F.detach (F.observe (total vc)))) r)
  end)
end

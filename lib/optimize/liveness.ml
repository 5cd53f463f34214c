module A = Nml.Ast
module S = Set.Make (String)

type site = { id : int; branch : (int * bool) list; nil_guarded : bool }

let fv e = S.of_list (A.free_vars e)

(* Does [x] occur free under an inner lambda?  If so its uses cannot be
   ordered statically and nothing is eligible. *)
let rec occurs_under_lambda x = function
  | A.Const _ | A.Prim _ | A.Var _ -> false
  | A.App (_, A.Lam (_, p, b), a) ->
      (* the let sugar: [b] runs exactly once, right after [a] *)
      ((not (String.equal p x)) && occurs_under_lambda x b) || occurs_under_lambda x a
  | A.Lam (_, p, b) -> (not (String.equal p x)) && List.mem x (A.free_vars b)
  | A.App (_, f, a) -> occurs_under_lambda x f || occurs_under_lambda x a
  | A.If (_, c, t, e) ->
      occurs_under_lambda x c || occurs_under_lambda x t || occurs_under_lambda x e
  | A.Letrec (_, bs, body) ->
      (* a letrec binding x itself shadows it everywhere in the group *)
      (not (List.exists (fun (p, _) -> String.equal p x) bs))
      && (List.exists (fun (_, b) -> occurs_under_lambda x b) bs
         || occurs_under_lambda x body)

(* Collects every saturated cons (and tree node) application together
   with its branch path and, when [param] is given, whether the parameter
   is dead after it.  [guarded] is a pair of flags: inside the else
   branch of [null param] / of [isleaf param]. *)
let collect ?param e =
  let sites = ref [] in
  let eligibles = ref [] in
  let nsites = ref [] in
  let neligibles = ref [] in
  let cons_counter = ref 0 in
  let node_counter = ref 0 in
  let if_counter = ref 0 in
  let defeated =
    match param with Some x -> occurs_under_lambda x e | None -> false
  in
  let rec go e ~k ~branch ~under_lambda ~shadowed ~guarded =
    match e with
    | A.Const _ | A.Prim _ | A.Var _ -> ()
    | A.App (_, A.App (_, A.Prim (_, A.Cons), e1), e2) ->
        let id = !cons_counter in
        incr cons_counter;
        let s = { id; branch = List.rev branch; nil_guarded = fst guarded } in
        sites := s :: !sites;
        (match param with
        | Some x
          when (not defeated) && (not under_lambda) && (not shadowed)
               && not (S.mem x k) ->
            eligibles := s :: !eligibles
        | _ -> ());
        go e1 ~k:(S.union (fv e2) k) ~branch ~under_lambda ~shadowed ~guarded;
        go e2 ~k ~branch ~under_lambda ~shadowed ~guarded
    | A.App (_, A.App (_, A.App (_, A.Prim (_, A.Node), e1), e2), e3) ->
        let id = !node_counter in
        incr node_counter;
        let s = { id; branch = List.rev branch; nil_guarded = snd guarded } in
        nsites := s :: !nsites;
        (match param with
        | Some x
          when (not defeated) && (not under_lambda) && (not shadowed)
               && not (S.mem x k) ->
            neligibles := s :: !neligibles
        | _ -> ());
        go e1 ~k:(S.union (fv e2) (S.union (fv e3) k)) ~branch ~under_lambda ~shadowed
          ~guarded;
        go e2 ~k:(S.union (fv e3) k) ~branch ~under_lambda ~shadowed ~guarded;
        go e3 ~k ~branch ~under_lambda ~shadowed ~guarded
    | A.App (_, A.Lam (_, p, b), e') ->
        (* the let sugar: [e'] evaluates first, then [b]; sites inside [b]
           are orderable, unlike a general lambda body.  Children are
           visited in the same order as the generic application case so
           cons numbering stays stable. *)
        let shadowed_b = shadowed || param = Some p in
        go b ~k ~branch ~under_lambda ~shadowed:shadowed_b ~guarded;
        go e' ~k:(S.union (S.remove p (fv b)) k) ~branch ~under_lambda ~shadowed ~guarded
    | A.App (_, f, a) ->
        go f ~k:(S.union (fv a) k) ~branch ~under_lambda ~shadowed ~guarded;
        go a ~k ~branch ~under_lambda ~shadowed ~guarded
    | A.Lam (_, p, b) ->
        let shadowed = shadowed || param = Some p in
        go b ~k:S.empty ~branch ~under_lambda:true ~shadowed ~guarded
    | A.If (_, c, t, e') ->
        let iid = !if_counter in
        incr if_counter;
        (* in the else-branch of [null param] / [isleaf param] the
           parameter is certainly a cell / a node *)
        let is_null_test =
          match (c, param) with
          | A.App (_, A.Prim (_, A.Null), A.Var (_, v)), Some x -> String.equal v x
          | _ -> false
        in
        let is_leaf_test =
          match (c, param) with
          | A.App (_, A.Prim (_, A.Isleaf), A.Var (_, v)), Some x -> String.equal v x
          | _ -> false
        in
        let gn, gt = guarded in
        go c ~k:(S.union (fv t) (S.union (fv e') k)) ~branch ~under_lambda ~shadowed
          ~guarded;
        go t ~k ~branch:((iid, true) :: branch) ~under_lambda ~shadowed
          ~guarded:(gn && not is_null_test, gt && not is_leaf_test);
        go e' ~k ~branch:((iid, false) :: branch) ~under_lambda ~shadowed
          ~guarded:(gn || is_null_test, gt || is_leaf_test)
    | A.Letrec (_, bs, body) ->
        let shadowed =
          shadowed || List.exists (fun (p, _) -> param = Some p) bs
        in
        let rec rhss = function
          | [] -> ()
          | (_, b) :: rest ->
              let later =
                List.fold_left (fun acc (_, b') -> S.union (fv b') acc) (fv body) rest
              in
              go b ~k:(S.union later k) ~branch ~under_lambda ~shadowed ~guarded;
              rhss rest
        in
        rhss bs;
        go body ~k ~branch ~under_lambda ~shadowed ~guarded
  in
  go e ~k:S.empty ~branch:[] ~under_lambda:false ~shadowed:false
    ~guarded:(false, false);
  ( (List.rev !sites, List.rev !eligibles),
    (List.rev !nsites, List.rev !neligibles) )

let cons_sites e = fst (fst (collect e))
let eligible_sites e ~param = snd (fst (collect ~param e))
let node_sites e = fst (snd (collect e))
let eligible_node_sites e ~param = snd (snd (collect ~param e))

let exclusive s1 s2 =
  let rec walk p1 p2 =
    match (p1, p2) with
    | (i1, b1) :: r1, (i2, b2) :: r2 when i1 = i2 ->
        if b1 <> b2 then true else walk r1 r2
    | _ -> false
  in
  walk s1.branch s2.branch

let select sites =
  List.fold_left
    (fun kept s -> if List.for_all (exclusive s) kept then kept @ [ s ] else kept)
    [] sites

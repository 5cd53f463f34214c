type t = Zero | One of int

let zero = Zero

let one i =
  if i < 0 then invalid_arg "Besc.one: negative spine count" else One i

let bottom = Zero
let top ~d = One d

let join a b =
  match (a, b) with
  | Zero, x | x, Zero -> x
  | One i, One j -> One (max i j)

let meet a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One i, One j -> One (min i j)

let leq a b =
  match (a, b) with
  | Zero, _ -> true
  | One _, Zero -> false
  | One i, One j -> i <= j

let equal a b = match (a, b) with
  | Zero, Zero -> true
  | One i, One j -> i = j
  | (Zero | One _), _ -> false

let compare a b =
  match (a, b) with
  | Zero, Zero -> 0
  | Zero, One _ -> -1
  | One _, Zero -> 1
  | One i, One j -> Int.compare i j

let spines = function Zero -> 0 | One i -> i

let sub ~s t =
  if s < 1 then invalid_arg "Besc.sub: car^s needs s >= 1";
  match t with One i when i = s -> One (i - 1) | t -> t

let all ~d = Zero :: List.init (d + 1) (fun i -> One i)

let pp ppf = function
  | Zero -> Format.pp_print_string ppf "<0,0>"
  | One i -> Format.fprintf ppf "<1,%d>" i

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  match Scanf.sscanf_opt s "<%d,%d>%!" (fun a b -> (a, b)) with
  | Some (0, 0) -> Some Zero
  | Some (1, k) when k >= 0 -> Some (One k)
  | _ -> None

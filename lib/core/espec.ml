(* The escape analysis as a [Framework.Spec.S]: a thin delegation layer
   over the domain engine ([Dvalue], including its extensional
   comparison), and the shared abstract interpreter
   ([Framework.Interp]) instantiated at that domain with the [C] tables
   and hooks of [Semantics].  [Fixpoint] is the generic solver
   instantiated at this Spec. *)

let name = "escape"

type value = Dvalue.t

let bottom = Dvalue.bottom

(* the chain bound is the installed state's, as in [Dvalue]'s memo *)
let top ty = Dvalue.top ~d:(Dvalue.current_d ()) ty
let join = Dvalue.join
let equal = Dvalue.equal

type state = Dvalue.state

let create_state = Dvalue.create_state
let with_state = Dvalue.with_state
let ensure_d = Dvalue.ensure_d
let memo_stats = Dvalue.cache_stats
let invalidations = Dvalue.invalidations

include Framework.Interp.Make (struct
  type nonrec value = value

  let bottom = bottom
  let top = top
  let join = join
  let equal = equal
  let apply = Dvalue.apply

  include Semantics
end)

(* The escape analysis as a [Framework.Spec.S]: a thin delegation layer
   over the domain engine ([Dvalue], including its extensional
   comparison) and the abstract semantics ([Semantics]).  [Fixpoint] is
   the generic solver instantiated at this Spec. *)

let name = "escape"

type value = Dvalue.t

let bottom = Dvalue.bottom
let top = Dvalue.top
let join = Dvalue.join

let equal ~d a b =
  Dvalue.ensure_d d;
  Dvalue.equal a b

let leq ~d a b =
  Dvalue.ensure_d d;
  Dvalue.leq a b

let widen ~d ty _v = Dvalue.top ~d ty

type state = Dvalue.state

let create_state = Dvalue.create_state
let with_state = Dvalue.with_state
let ensure_d = Dvalue.ensure_d

type source = Dvalue.source

let new_source = Dvalue.new_source
let source_id = Dvalue.source_id
let touch = Dvalue.touch
let note_read = Dvalue.note_read
type reads = Dvalue.reads

let with_reads = Dvalue.watch
let sources = Dvalue.sources
let memo_stats = Dvalue.cache_stats
let invalidations = Dvalue.invalidations

type ctx = Semantics.ctx

let make_ctx ~d ~global ~max_iters =
  { Semantics.d; global; max_iters; iters = 0; capped = false; fv_cache = [] }

let transfer ctx tast = Semantics.eval ctx Semantics.Env.empty tast
let iterations (ctx : ctx) = ctx.Semantics.iters
let record_iteration (ctx : ctx) = ctx.Semantics.iters <- ctx.Semantics.iters + 1
let capped (ctx : ctx) = ctx.Semantics.capped
let set_capped (ctx : ctx) = ctx.Semantics.capped <- true

(** The per-file lint job for [nmlc batch --lint] and the daemon's
    [lint] method.

    Built with {!Cache.Batch.job}: same exception regime, same result
    shape, with [findings] populated and the cache counters coming from
    the lint record store. *)

val job : Cache.Batch.job
(** {!Engine.run} under the default configuration, rendered as
    [nmlc lint] prints it.  Exit code [1] when findings survive
    suppression, [0] otherwise. *)

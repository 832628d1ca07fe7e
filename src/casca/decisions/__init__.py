"""Decision systems: the controllers that close the loop over the APIs.

Three strategies share one observation surface (SLO API, control API,
carbon API) and one cadence (a step every tau seconds): RDS picks a
uniformly random parameter value, GDS follows a sign-of-error gradient
rule, RLDS learns a policy over the MDP formulation.
"""

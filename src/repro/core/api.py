"""API and API Management (Section II-B).

"The platform exposes secure APIs for all its capabilities.  The API
management system first authenticates the user requesting the APIs, and
once successfully authenticated, it consults the Privacy Management
system and allows API access accordingly."

:class:`ApiGateway` is that front door: token authentication through the
federated identity service, per-route RBAC requirements consulted on
every call, per-tenant (and optional per-route) rate limiting, audit
logging of every request, and metering hooks for billing.

Requests travel as a typed :class:`ApiRequest` envelope through
:meth:`ApiGateway.dispatch`; handlers receive a :class:`RequestContext`
(authenticated user, tenant, request id, deadline) plus the request's
parameters.  Failures are raised as exceptions anywhere in the stack and
mapped to HTTP statuses by the single table in
:mod:`repro.core.errors` (:func:`~repro.core.errors.http_status_for`) —
no per-branch response construction.  Routes are versioned
(``/v1/...``); unversioned paths resolve against the default version.

Every capability surface (the platform's own routes, ``/v1/compute``,
``/v1/subscriptions``, ``/v1/studies``) is an :class:`ApiSurface`: a
table of :class:`Route` rows plus one tenant-ownership lookup and one
audit-line format, registered by :meth:`ApiGateway.register_surface`.
"""

from __future__ import annotations

import functools
import inspect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import TraceContext
from ..core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NotFoundError,
    RateLimitError,
    ValidationError,
    http_status_for,
)
from ..rbac.engine import RbacEngine
from ..rbac.federation import FederatedIdentityService, IdentityToken
from ..rbac.model import Action, Scope, ScopeKind, User

Handler = Callable[..., Any]

DEFAULT_API_VERSION = "v1"

# The one per-route rate window (seconds) every surface's limits count in.
ROUTE_WINDOW_S = 60.0


@dataclass(frozen=True)
class RouteSpec:
    """One exposed API route and its access requirement.

    ``version`` prefixes the wire path (``/v1/billing``); requests using
    the bare path resolve against :data:`DEFAULT_API_VERSION`.  A route
    may carry its own rate limit (requests per ``rate_window_s`` per
    tenant) on top of the gateway-wide one.
    """

    path: str
    handler: Handler
    action: Action
    resource_type: str
    scope_kind: ScopeKind   # scope entity id comes from the request
    description: str = ""
    version: str = DEFAULT_API_VERSION
    rate_limit: Optional[int] = None
    rate_window_s: Optional[float] = None

    @property
    def versioned_path(self) -> str:
        return f"/{self.version}{self.path}"


@dataclass
class RateLimiter:
    """Fixed-window per-key rate limiter on the simulated clock.

    Bounded: expired windows are pruned and the number of tracked keys is
    capped (LRU eviction), so a million distinct tenants cannot grow the
    limiter without bound.
    """

    limit: int
    window_s: float
    clock: SimClock
    max_keys: int = 4096
    _windows: "OrderedDict[str, Tuple[float, int]]" = field(
        default_factory=OrderedDict)

    def allow(self, key: str) -> bool:
        now = self.clock.now
        window_start, count = self._windows.get(key, (now, 0))
        if now - window_start >= self.window_s:
            window_start, count = now, 0
        allowed = count < self.limit
        if allowed:
            count += 1
        self._windows[key] = (window_start, count)
        self._windows.move_to_end(key)
        if len(self._windows) > self.max_keys:
            self.prune()
        return allowed

    def prune(self) -> None:
        """Drop expired windows; evict least-recent keys past the cap."""
        now = self.clock.now
        expired = [key for key, (start, _) in self._windows.items()
                   if now - start >= self.window_s]
        for key in expired:
            del self._windows[key]
        while len(self._windows) > self.max_keys:
            self._windows.popitem(last=False)

    @property
    def tracked_keys(self) -> int:
        return len(self._windows)


@dataclass(frozen=True)
class ApiRequest:
    """The typed request envelope every gateway call travels in.

    ``deadline_s`` is an absolute simulated time; a request whose
    deadline has passed (before dispatch or after the handler ran) gets
    a 504 instead of a body.
    """

    path: str
    token: IdentityToken
    scope_entity_id: str
    org_id: str
    env_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class RequestContext:
    """What an authenticated request looks like from inside a handler."""

    user: User
    tenant_id: str
    request_id: str
    deadline_s: Optional[float] = None
    # Propagation handle for request-path tracing: handlers pass it (or
    # just open spans on the gateway's monitoring service) so downstream
    # spans join the dispatch's trace tree.  None when no tracer is
    # attached to that service.
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ApiResponse:
    """Uniform response envelope."""

    status: int
    body: Any
    request_id: str


@dataclass(frozen=True)
class Route:
    """One row of a surface's route table.

    ``owns`` names the request parameter carrying an id the caller's
    tenant must own; ``rate_limit`` counts per tenant per
    :data:`ROUTE_WINDOW_S` (None: only the gateway-wide limit applies).
    """

    path: str
    handler: Handler
    action: Action
    resource_type: str
    rate_limit: Optional[int]
    description: str
    owns: Optional[str] = None


class ApiSurface:
    """A tenant-scoped gateway surface: route table, owner lookup, audit.

    Subclasses name the resource their ids refer to (``noun``), list
    their :class:`Route` rows, and, when a route owns an id, say which
    tenant owns it.  Tenant isolation is strict: another tenant's id
    behaves exactly like a missing one (404), so ids cannot be probed
    across tenants.
    """

    noun = ""
    # The registering gateway's monitoring; audit lines go there.
    monitoring: MonitoringService

    def routes(self) -> Sequence[Route]:
        raise NotImplementedError

    def owner(self, resource_id: str) -> Optional[str]:
        """The tenant owning ``resource_id`` (None or NotFoundError: none)."""
        return None

    def audit(self, context: RequestContext, resource_id: str, verb: str,
              extra: str = "") -> None:
        """One ``audit`` line threading the resource and request ids."""
        suffix = f" {extra}" if extra else ""
        self.monitoring.log(
            "audit",
            f"{self.noun} {resource_id} {verb} by user "
            f"{context.user.user_id} tenant {context.tenant_id} "
            f"request {context.request_id}{suffix}")


def _owner_checked(surface: ApiSurface, param: str,
                   handler: Handler) -> Handler:
    """Wrap ``handler`` so another tenant's ``param`` id reads as 404."""
    @functools.wraps(handler)
    def owned(context: RequestContext, **params: Any) -> Any:
        resource_id = params[param]
        try:
            tenant = surface.owner(resource_id)
        except NotFoundError:
            tenant = None
        if tenant != context.tenant_id:
            raise NotFoundError(f"no {surface.noun} {resource_id!r}")
        return handler(context, **params)
    return owned


def _parameter_names(handler: Handler
                     ) -> Tuple[Optional[FrozenSet[str]], FrozenSet[str]]:
    """(accepted, required) request parameters of ``handler``.

    The first parameter takes the :class:`RequestContext`; ``accepted``
    is None when the handler takes ``**kwargs``.
    """
    parameters = list(inspect.signature(handler).parameters.values())[1:]
    named = [p for p in parameters
             if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    accepted = (None if any(p.kind is p.VAR_KEYWORD for p in parameters)
                else frozenset(p.name for p in named))
    return accepted, frozenset(p.name for p in named if p.default is p.empty)


class ApiGateway:
    """Authenticating, authorizing, rate-limited, audited API front door."""

    def __init__(self, rbac: RbacEngine,
                 federation: FederatedIdentityService,
                 monitoring: Optional[MonitoringService] = None,
                 clock: Optional[SimClock] = None,
                 rate_limit: int = 100, rate_window_s: float = 60.0,
                 meter: Optional[Callable[[str, str], None]] = None) -> None:
        self.rbac = rbac
        self.federation = federation
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self._routes: Dict[str, RouteSpec] = {}   # keyed by versioned path
        self._parameters: Dict[
            str, Tuple[Optional[FrozenSet[str]], FrozenSet[str]]] = {}
        self._limiter = RateLimiter(rate_limit, rate_window_s, self.clock)
        self._route_limiters: Dict[str, RateLimiter] = {}
        self._meter = meter
        self._request_counter = 0

    def register_route(self, route: RouteSpec) -> None:
        """Expose a capability behind an access requirement."""
        key = route.versioned_path
        if key in self._routes:
            raise ConfigurationError(f"route {key!r} already registered")
        self._routes[key] = route
        self._parameters[key] = _parameter_names(route.handler)
        if route.rate_limit is not None:
            self._route_limiters[key] = RateLimiter(
                route.rate_limit,
                route.rate_window_s if route.rate_window_s is not None
                else self._limiter.window_s,
                self.clock)

    def register_surface(self, surface: ApiSurface) -> None:
        """Expose every row of a surface's route table, tenant-scoped."""
        surface.monitoring = self.monitoring
        for row in surface.routes():
            self.register_route(RouteSpec(
                path=row.path,
                handler=(row.handler if row.owns is None
                         else _owner_checked(surface, row.owns, row.handler)),
                action=row.action, resource_type=row.resource_type,
                scope_kind=ScopeKind.TENANT, description=row.description,
                rate_limit=row.rate_limit, rate_window_s=ROUTE_WINDOW_S))

    def routes(self) -> List[str]:
        return sorted(self._routes)

    # -- the typed front door ------------------------------------------------

    def dispatch(self, request: ApiRequest) -> ApiResponse:
        """One API request through the full management stack.

        Order mirrors the paper: authenticate first, then consult the
        Privacy Management (RBAC) system, then dispatch.  Every outcome
        is audited; rate limits apply per authenticated tenant; any
        exception maps to its HTTP status through
        :data:`~repro.core.errors.HTTP_STATUS_BY_ERROR`.
        """
        self._request_counter += 1
        request_id = f"req-{self._request_counter:08d}"
        started = self.clock.now
        # Request identity for health accounting; _handle refines these
        # once the route resolves and the caller authenticates (a 401 or
        # 404 never learns the tenant).
        observed = {"tenant": "unauthenticated", "route": request.path}
        with self.monitoring.span("api.dispatch", "gateway",
                                  path=request.path,
                                  request_id=request_id) as span:
            status = 200
            try:
                body = self._handle(request, request_id, observed)
            except Exception as exc:
                status = http_status_for(exc)
                span.set_status("ERROR", f"{type(exc).__name__}: {exc}")
                self.monitoring.log(
                    "api", f"{request_id} {status} {request.path}: {exc}",
                    level="ERROR" if status >= 500 else "WARN",
                    trace=span.trace_id)
                body = {"error": str(exc)}
            span.set_attribute("http.status", status)
            latency_s = self.clock.now - started
            self.monitoring.metrics.incr(f"api.status.{status}")
            self.monitoring.metrics.observe("api.latency", latency_s,
                                            trace_id=span.trace_id)
            trace = {} if span.trace_id is None else {"trace": span.trace_id}
            self.monitoring.publish("gateway", "api.request", **observed,
                                    status=status, latency_s=latency_s,
                                    **trace)
            return ApiResponse(status, body, request_id)

    def _handle(self, request: ApiRequest, request_id: str,
                observed: Dict[str, str]) -> Any:
        route = self._resolve(request.path)
        observed["route"] = route.path

        # 1. Authentication (federated identity).
        user: User = self.federation.authenticate(request.token)
        observed["tenant"] = user.tenant_id

        # 2. Rate limiting per tenant — gateway-wide, then per-route.
        if not self._limiter.allow(user.tenant_id):
            raise RateLimitError("rate limit exceeded")
        route_limiter = self._route_limiters.get(route.versioned_path)
        if route_limiter is not None and not route_limiter.allow(
                user.tenant_id):
            raise RateLimitError(
                f"rate limit exceeded for {route.versioned_path}")

        # 3. Authorization via the Privacy Management system.
        scope = Scope(route.scope_kind, request.scope_entity_id)
        self.rbac.require(user.user_id, route.action, route.resource_type,
                          scope, request.org_id, request.env_id)

        # 4. Deadline, dispatch, meter, audit.
        self._check_deadline(request, "before dispatch")
        trace = self.monitoring.trace_context()
        context = RequestContext(user=user, tenant_id=user.tenant_id,
                                 request_id=request_id,
                                 deadline_s=request.deadline_s,
                                 trace=trace)
        self._check_parameters(route, request.params)
        body = route.handler(context, **dict(request.params))
        self._check_deadline(request, "after handler")
        if self._meter is not None:
            self._meter(user.tenant_id, route.path)
        self.monitoring.log(
            "api", f"{request_id} 200 {request.path} user {user.user_id}",
            trace=trace.trace_id if trace is not None else None)
        self.monitoring.metrics.incr(f"api.{route.path}.200")
        return body

    def _resolve(self, path: str) -> RouteSpec:
        route = self._routes.get(path)
        if route is None:  # unversioned path: default version
            route = self._routes.get(f"/{DEFAULT_API_VERSION}{path}")
        if route is None:
            raise NotFoundError(f"no route {path}")
        return route

    def _check_parameters(self, route: RouteSpec,
                          params: Mapping[str, Any]) -> None:
        """Unknown or missing parameters are the caller's error (422)."""
        accepted, required = self._parameters[route.versioned_path]
        names = params.keys()
        if accepted is not None and not names <= accepted:
            raise ValidationError(
                f"{route.path} takes no parameter(s) "
                f"{sorted(names - accepted)}")
        if not required <= names:
            raise ValidationError(
                f"{route.path} requires parameter(s) "
                f"{sorted(required - names)}")

    def _check_deadline(self, request: ApiRequest, when: str) -> None:
        if (request.deadline_s is not None
                and self.clock.now > request.deadline_s):
            raise DeadlineExceededError(
                f"deadline {request.deadline_s:.3f}s passed {when} "
                f"(now {self.clock.now:.3f}s)")

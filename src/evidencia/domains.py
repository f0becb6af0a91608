"""Registrable-domain extraction against the shipped public-suffix snapshot."""

from __future__ import annotations

from urllib.parse import urlsplit

from . import resources


def host_of(url: str) -> str | None:
    """Lowercased host of a URL; tolerates scheme-less inputs. None when
    there is no host, or when ``urlsplit`` refuses the URL (``http://[x``)."""
    url = url.strip()
    if not url:
        return None
    if "//" not in url.split("?", 1)[0].split("#", 1)[0]:
        url = "//" + url
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    return host.lower().rstrip(".") if host else None


def public_suffix(host: str) -> str | None:
    """Longest matching suffix under standard list semantics.

    Exception rules beat wildcards; otherwise the longest matching rule wins;
    unlisted TLDs fall back to the implicit ``*`` rule (last label).
    """
    plain, wildcard, exception = resources.public_suffix_rules()
    labels = host.split(".")
    if any(not lab for lab in labels):
        return None
    best: list[str] | None = None
    for i in range(len(labels)):
        candidate = labels[i:]
        name = ".".join(candidate)
        if name in exception:
            # the exception rule's suffix is the rule minus its first label
            return ".".join(candidate[1:]) if len(candidate) > 1 else None
        matched = None
        if name in plain:
            matched = candidate
        elif len(candidate) > 1 and ".".join(candidate[1:]) in wildcard:
            matched = candidate
        if matched and (best is None or len(matched) > len(best)):
            best = matched
    if best is None:
        best = labels[-1:]
    return ".".join(best)


def registrable_domain(url_or_host: str) -> str | None:
    """suffix + one label, or None when the host is a bare suffix/invalid."""
    if "/" in url_or_host or ":" in url_or_host:
        host = host_of(url_or_host)
    else:
        host = url_or_host.strip().lower().rstrip(".") or None
    if not host:
        return None
    suffix = public_suffix(host)
    if suffix is None or host == suffix:
        return None
    if not host.endswith("." + suffix):
        return None
    extra = host[: -(len(suffix) + 1)].split(".")
    return f"{extra[-1]}.{suffix}"


def aggregate_domain(url: str) -> str:
    """Bucket for domain statistics.

    Government hosts aggregate as families: anything under ``gov.br`` becomes
    ``gov.br`` and anything under the US ``.gov`` TLD becomes ``.gov``. Other
    hosts report their registrable domain; unusable URLs report ``invalid``.
    """
    host = host_of(url)
    if not host:
        return "invalid"
    if host == "gov.br" or host.endswith(".gov.br"):
        return "gov.br"
    if host == "gov" or host.endswith(".gov"):
        return ".gov"
    reg = registrable_domain(host)
    return reg if reg else "invalid"

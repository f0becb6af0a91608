"""Registrable-domain extraction and the statistics bucketing."""

from evidencia.domains import aggregate_domain, host_of, public_suffix, registrable_domain


class TestHostOf:
    def test_full_url(self):
        assert host_of("https://WWW.Example.COM/path?q=1") == "www.example.com"

    def test_schemeless(self):
        assert host_of("www.portal.com.br/noticia") == "www.portal.com.br"

    def test_empty(self):
        assert host_of("") is None

    def test_trailing_dot_removed(self):
        assert host_of("https://example.com./x") == "example.com"

    def test_url_that_urlsplit_refuses_has_no_host(self):
        for url in ("http://[abc", "http://a]b/x", "http://\uff03x.com"):
            assert host_of(url) is None, url
            assert registrable_domain(url) is None, url
            assert aggregate_domain(url) == "invalid", url


class TestPublicSuffix:
    def test_longest_rule_wins(self):
        assert public_suffix("noticias.portal.com.br") == "com.br"

    def test_plain_tld(self):
        assert public_suffix("example.com") == "com"

    def test_gov_br(self):
        assert public_suffix("saude.gov.br") == "gov.br"

    def test_unlisted_tld_falls_back_to_last_label(self):
        assert public_suffix("host.zzinvalid") == "zzinvalid"


class TestRegistrableDomain:
    def test_strips_subdomains(self):
        assert registrable_domain("https://noticias.portal.com.br/x") == "portal.com.br"

    def test_bare_suffix_has_no_registrable(self):
        assert registrable_domain("com.br") is None

    def test_plain_host_accepted(self):
        assert registrable_domain("example.com") == "example.com"

    def test_government_site(self):
        assert registrable_domain("https://conectesus-paciente.saude.gov.br/") == "saude.gov.br"

    def test_invalid(self):
        assert registrable_domain("") is None


class TestAggregateDomain:
    def test_gov_br_family_collapses(self):
        assert aggregate_domain("https://conectesus-paciente.saude.gov.br/") == "gov.br"
        assert aggregate_domain("https://www.gov.br/anvisa/pagina") == "gov.br"

    def test_us_gov_family_collapses(self):
        assert aggregate_domain("https://www.cdc.gov/page") == ".gov"

    def test_normal_site_uses_registrable_domain(self):
        assert aggregate_domain("https://noticias.uol.com.br/x") == "uol.com.br"

    def test_invalid_url(self):
        assert aggregate_domain("not a url at all") == "invalid"

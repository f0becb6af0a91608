#!/usr/bin/env python3
"""Regenerate the shipped demo fixtures.

Produces fixtures/corpus.jsonl (a small mixed corpus that exercises every
validation and enrichment path) and fixtures/cassettes/responses.jsonl (the
log of recorded provider responses, one line per request) so the whole
pipeline runs offline and byte-identically. The script is deterministic:
running it twice leaves the tree unchanged. It also replays the pipeline
in-process and asserts that each record lands on its intended path, so a
contract change that breaks a fixture fails here first.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CASSETTES = FIXTURES / "cassettes"
CAPTURED_AT = "2024-07-09T00:00:00Z"

sys.path.insert(0, str(ROOT / "src"))

from evidencia.claims import extract_claim, load_template  # noqa: E402
from evidencia.clocks import FrozenClock  # noqa: E402
from evidencia.enrichment import enrich_one  # noqa: E402
from evidencia.evalkit import EvalInstance, classification_prompt, select_shots, split  # noqa: E402
from evidencia.langid import TrigramDetector  # noqa: E402
from evidencia.matching import first_match  # noqa: E402
from evidencia.providers import (  # noqa: E402
    LOG_NAME,
    FixtureBackend,
    KIND_FACTCHECK,
    KIND_LLM,
    KIND_WEB,
    LlmRequest,
    WebSearchRequest,
    FactCheckRequest,
    request_hash,
    write_cassette,
)
from evidencia.records import NewsItem, WebResult, funnel, read_jsonl, write_news  # noqa: E402
from evidencia.textprep import build_query, llm_input  # noqa: E402
from evidencia.validation import AUTO_REMOVE_CONFIDENCE, run_validation  # noqa: E402

# ------------------------------------------------------------------ corpus

def R(id, corpus, label, text, pair_id=None, source_url=None, published_at=None):
    return NewsItem(id=id, corpus=corpus, text=text, label=label, pair_id=pair_id,
                    source_url=source_url, published_at=published_at)


RECORDS = [
    # fakebr pairs
    R("fake_0001", "fakebr", "fake",
      "Governo Temer irá acabar com a farmácia popular. Quem nunca ouviu ou até mesmo "
      "precisou da farmácia popular, não é mesmo? O sistema oferece a distribuição de "
      "remédios gratuitos para diversos tipos de doenças, esses recursos estão disponíveis "
      "até o mês de agosto de 2017",
      pair_id="p_0001", source_url="http://noticiasdopais.com.br/governo-temer-farmacia-popular",
      published_at="2017-06-14"),
    R("true_0001", "fakebr", "true",
      "O Ministério da Saúde negou nesta quinta-feira que o programa Farmácia Popular será "
      "encerrado neste ano. Segundo a pasta, o orçamento do programa está garantido e as "
      "unidades conveniadas seguem funcionando normalmente em todo o país. A rede distribui "
      "remédios gratuitos ou com desconto para doenças crônicas como diabetes e hipertensão.",
      pair_id="p_0001", source_url="https://portalexemplo.com.br/saude/farmacia-popular-mantida",
      published_at="2017-06-15"),
    R("true_0251", "fakebr", "true",
      "O paraíso dos infratores Para conseguir um terço dos votos dos deputados, Temer "
      "decreta perdão de multas. Os projetos de privatização para melhorar o desempenho das "
      "contas públicas estão sendo golpeados no processo de conquista de um terço dos votos "
      "da Câmara. Está na cara que o esquema de corrupção dos governos anteriores é mantido.",
      pair_id="p_0251", source_url="https://jornaldaregiao.com.br/politica/paraiso-dos-infratores"),
    R("fake_0251", "fakebr", "fake",
      "Temer assina decreto secreto que perdoa todas as multas ambientais de empresários "
      "aliados, afirma deputado em vídeo que circula nas redes sociais. A medida "
      "beneficiaria dezenas de investigados na operação e teria sido negociada em jantar "
      "fechado no Palácio.",
      pair_id="p_0251", source_url="http://noticiasdopais.com.br/decreto-secreto-multas"),
    R("true_3023", "fakebr", "true",
      "O paraíso dos infratores Para conseguir um terço dos votos dos deputados, Temer "
      "decreta perdão de multas. Os projetos de privatização para melhorar o desempenho das "
      "contas públicas estão sendo golpeados no processo de conquista de um terço dos votos "
      "da Câmara. Está na cara que o esquema de corrupção dos governos anteriores é mantido. "
      "Leia mais na edição de hoje.",
      pair_id="p_3023", source_url="https://jornaldaregiao.com.br/politica/paraiso-dos-infratores"),
    R("fake_3023", "fakebr", "fake",
      "Documento vazado mostra que todas as multas de trânsito serão canceladas antes das "
      "eleições para agradar motoristas infratores em todo o país. A informação circula em "
      "grupos de mensagens e é atribuída a um assessor do planalto.",
      pair_id="p_3023", source_url="http://noticiasdopais.com.br/multas-cancelas-eleicoes"),
    R("fake_0100", "fakebr", "fake",
      "Vacina contra a gripe causa a própria gripe e enfraquece o sistema imunológico, "
      "alerta suposto estudo divulgado em grupos de mensagens. Médicos ouvidos pela "
      "reportagem desmentem a informação e reforçam que o imunizante usa vírus inativado.",
      pair_id="p_0100", source_url="http://noticiasdopais.com.br/vacina-gripe-causa-gripe"),
    R("true_0100", "fakebr", "true",
      "A campanha nacional de vacinação contra a gripe começa na próxima segunda-feira em "
      "todo o país, informou o Ministério da Saúde. Idosos e profissionais de saúde formam "
      "o primeiro grupo prioritário e devem procurar os postos com documento de identidade.",
      pair_id="p_0100", source_url="https://portalexemplo.com.br/saude/campanha-gripe",
      published_at="2018-04-02"),
    R("fake_0200", "fakebr", "fake",
      "Novo imposto sobre transações por aplicativo de mensagens entra em vigor na próxima "
      "semana, diz corrente compartilhada em redes sociais. O texto afirma que cada "
      "mensagem enviada será taxada em dez centavos pelo governo federal.",
      pair_id="p_0200", source_url="http://noticiasdopais.com.br/imposto-mensagens"),
    R("true_0200", "fakebr", "true",
      "A Receita Federal esclareceu que não existe qualquer projeto para taxar mensagens "
      "enviadas por aplicativos. Em nota oficial, o órgão classificou a corrente como boato "
      "e orientou contribuintes a consultarem apenas os canais oficiais antes de "
      "compartilhar informações.",
      pair_id="p_0200", source_url="https://portalexemplo.com.br/economia/receita-nega-taxa"),
    # covid19br
    R("cv_0001", "covid19br", "true",
      "Gente ja tivemos pacientes que fizeram exame de COVID-19 , inclusive com exame feito "
      "no sabin e tendo dado negativo e repetiu aqui no Hospital Oswaldo Cruz no teste "
      "rápido e deu positivo, lembre-se o teste de swab nasal tem chance de dar negativo. "
      "Fiquem atentos, pra não estar com um falso negativo e contaminando outros. Olho se "
      "tiver sintomas não descuide pois alguns exames são falsos negativos."),
    R("cv_0002", "covid19br", "fake",
      "URGENTE! As vacinas contra a covid contêm um microchip de rastreamento que será "
      "ativado pela rede 5G, afirma mensagem compartilhada em grupos de família. "
      "Compartilhe antes que apaguem este aviso porque eles não querem que você saiba a "
      "verdade."),
    R("cv_0003", "covid19br", "fake",
      "URGENTE! As vacinas contra a covid contêm um microchip de rastreamento que será "
      "ativado pela rede 5G, afirma mensagem compartilhada em grupos de família. "
      "Compartilhe antes que apaguem este aviso porque eles não querem que você saiba a "
      "verdade."),
    R("cv_0004", "covid19br", "fake",
      "https://www.curamilagrosa-exemplo.com.br/remedio-secreto"),
    R("cv_0005", "covid19br", "fake",
      "Cura garantida! Compartilhe agora com todos!"),
    R("cv_0006", "covid19br", "true",
      "BREAKING NEWS: The health ministry announced today a new vaccination schedule for "
      "all regions of the country, with priority given to elderly people and health "
      "workers during the coming weeks of this winter season."),
    R("cv_0007", "covid19br", "true",
      "A Agência Nacional de Vigilância Sanitária aprovou nesta terça-feira o uso "
      "emergencial de mais uma vacina contra a covid-19 no Brasil. A decisão foi unânime "
      "entre os diretores e permite o início da aplicação das doses já na próxima semana.",
      published_at="2021-06-01"),
    R("cv_0008", "covid19br", "fake",
      "Atención: un mensaje que circula en las redes sociales asegura que beber agua "
      "caliente con limón cada mañana elimina el virus del cuerpo en pocas horas, algo que "
      "los médicos ya desmintieron varias veces durante los últimos meses."),
    R("cv_0009", "covid19br", "fake",
      "O governo vai cortar o auxílio emergencial de todas as famílias já no próximo mês, "
      "segundo mensagens que circulam em grupos de aplicativo nesta semana. O texto afirma "
      "que os beneficiários precisam sacar todo o dinheiro imediatamente porque as contas "
      "serão bloqueadas sem aviso pelo banco responsável pelo pagamento. Corra e avise "
      "todo mundo."),
    R("cv_0010", "covid19br", "true",
      "O governo vai cortar o auxílio emergencial de todas as famílias já no próximo mês, "
      "segundo mensagens que circulam em grupos de aplicativo nesta semana. O texto afirma "
      "que os beneficiários precisam sacar todo o dinheiro imediatamente porque as contas "
      "serão bloqueadas sem aviso pelo banco responsável pelo pagamento. A informação é "
      "falsa."),
    R("cv_0011", "covid19br", "fake",
      "Vídeo que circula no endereço https://portalexemplo.com.br/video-vacinas mostra "
      "suposta reação imediata de pacientes após a vacina, com pessoas desmaiando na fila "
      "do posto de saúde. A gravação é usada para assustar famílias inteiras nos grupos de "
      "mensagens."),
    R("cv_0012", "covid19br", "true",
      "A prefeitura esclareceu que o vídeo publicado em "
      "https://portalexemplo.com.br/video-vacinas foi gravado durante um treinamento de "
      "simulação da defesa civil e não mostra reação à vacina. O material original está "
      "disponível no site oficial com a data correta."),
    R("cv_0013", "covid19br", "fake",
      "Cientistas da universidade descobriram que o chá de boldo elimina o vírus do "
      "organismo em apenas duas horas, garante uma corrente de mensagens muito "
      "compartilhada. O suposto estudo não existe e a universidade citada já publicou nota "
      "negando a pesquisa milagrosa."),
    R("cv_0014", "covid19br", "fake",
      "Atenção amigos e familiares, repassando aviso importante que recebi agora do grupo "
      "da vizinhança sobre o toque de recolher nacional que começa amanhã às seis horas da "
      "tarde em todas as cidades do país, avisem todos os conhecidos."),
    R("cv_0015", "covid19br", "true",
      "Moradores relataram filas longas nos postos de saúde do centro da cidade durante a "
      "manhã desta segunda-feira para receber a segunda dose da vacina. A secretaria "
      "municipal informou que o estoque foi reabastecido ainda pela manhã e que o "
      "atendimento seguirá normalmente durante toda a semana, inclusive no feriado."),
    R("cv_0016", "covid19br", "fake",
      "Prefeitura distribui cestas básicas gratuitas para todos os moradores sem cadastro "
      "prévio durante esta semana, basta apresentar documento em qualquer escola municipal "
      "da região metropolitana, diz mensagem que viralizou nos grupos."),
    R("cv_0017", "covid19br", "true",
      "🚨 Informação importante: a “vacinação de rotina” das crianças continua disponível "
      "em todas as unidades básicas de saúde, confirmou a secretaria nesta sexta-feira. "
      "Pais devem levar a caderneta de vacinação e um documento com foto para atualizar as "
      "doses em atraso."),
    R("cv_0018", "covid19br", "fake",
      "Mercado vai liberar compras sem pagamento na sexta-feira para clientes que chegarem "
      "antes das oito horas, afirma panfleto falso distribuído no bairro e compartilhado "
      "em fotos pelos aplicativos de mensagens da cidade inteira."),
    R("cv_0019", "covid19br", "true",
      "O hospital regional inaugurou nesta quarta-feira dez novos leitos de terapia "
      "intensiva para pacientes com complicações respiratórias. Com a ampliação, a unidade "
      "passa a contar com quarenta leitos no total e reforça o atendimento da região "
      "durante o inverno."),
    R("cv_0020", "covid19br", "fake",
      "Banco envia mensagem pedindo atualização imediata de senha por link externo para "
      "evitar bloqueio da conta ainda hoje, alertam clientes. A instituição confirmou que "
      "não envia esse tipo de pedido e orientou apagar a mensagem imediatamente."),
    # mumin_pt
    R("mm_0001", "mumin_pt", "fake",
      "O novo coronavírus pode ser transmitido através de encomendas enviadas da China",
      published_at="2020-03-04"),
    R("mm_0002", "mumin_pt", "fake",
      "Pessoal, todo mundo precisa se cadastrar no conectesus para vacinar. Sugiro fazer "
      "já. Provavelmente o site nao aguentará os acessos quando for o momento. "
      "https://conectesus-paciente.saude.gov.br/ É um cadastro no SUS. Quem tomou a vacina "
      "da Febre Amarela em 2018 já tem. Ou quem usou o SUS nos últimos anos. O aplicativo "
      "funciona mais ou menos como esses apps de carteira de motorista ou título de "
      "eleitor"),
    R("mm_0003", "mumin_pt", "true",
      "O Ministério da Saúde confirmou nesta sexta-feira o envio de mais dois milhões de "
      "doses de vacinas para os estados da região nordeste ainda neste mês. A distribuição "
      "começa pelos municípios com maior população e segue o calendário nacional.",
      published_at="2021-04-09"),
    R("mm_0004", "mumin_pt", "fake",
      "Beber água de coco todos os dias impede a infecção pelo coronavírus, garante "
      "publicação compartilhada milhares de vezes nas redes sociais. Especialistas "
      "explicam que nenhum alimento isolado é capaz de impedir a infecção pelo vírus."),
    R("mm_0005", "mumin_pt", "fake",
      "O novo aplicativo do governo vai descontar dinheiro da conta de quem compartilhar "
      "críticas nas redes sociais, afirma corrente divulgada por perfis anônimos. Não "
      "existe qualquer lei ou sistema com esse funcionamento no país."),
    R("mm_0006", "mumin_pt", "fake",
      "Supermercados vão fechar por trinta dias a partir de segunda-feira por determinação "
      "federal, diz áudio atribuído a um funcionário do setor. As redes de supermercados "
      "negaram o fechamento e seguem com horário normal de funcionamento."),
    R("mm_0007", "mumin_pt", "true",
      "A agência reguladora autorizou nesta quinta-feira a realização de testes clínicos "
      "de uma nova vacina nacional em três capitais. O estudo vai acompanhar vinte mil "
      "voluntários adultos durante doze meses antes do pedido de registro definitivo."),
    R("mm_0008", "mumin_pt", "fake",
      "Fotos de prateleiras vazias usadas em reportagem seriam de outro país e de outra "
      "década, afirma postagem viral. A imagem original foi feita na própria cidade na "
      "semana passada, como mostram os créditos do fotógrafo."),
]

REMOVED = {
    "mm_0001",   # shorter than the content-token floor
    "cv_0003",   # exact duplicate of cv_0002
    "cv_0004",   # URL-only
    "cv_0005",   # too short
    "cv_0006",   # English
    "cv_0008",   # Spanish
    "true_3023", # near-duplicate of true_0251 from the same source URL
    "fake_3023", # pair member removed
}

# Per-record enrichment scenario. direct: rank = where the strong match sits.
# claim: answer = scripted model output; search "empty" plants no cassette so
# the claim search comes back empty and raises the error event; factcheck
# names which query (original/claim) has a recorded review.
SCENARIOS = {
    "fake_0001": {"kind": "claim", "answer": "Governo Temer irá acabar com a farmácia popular",
                  "factcheck": "original"},
    "true_0001": {"kind": "direct", "rank": 1, "link": "https://portalexemplo.com.br/saude/farmacia-popular"},
    "true_0251": {"kind": "direct", "rank": 1, "link": "https://jornaldaregiao.com.br/politica/multas"},
    "fake_0251": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/decreto-multas"},
    "fake_0100": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/vacina-gripe"},
    "true_0100": {"kind": "direct", "rank": 1, "link": "https://www.saude.gov.br/noticias/campanha-gripe"},
    "fake_0200": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/imposto-mensagens"},
    "true_0200": {"kind": "direct", "rank": 2, "link": "https://www.gov.br/receitafederal/notas/boato-taxa"},
    "cv_0001": {"kind": "claim",
                "answer": "Exames de COVID-19 podem apresentar falsos negativos, mesmo com testes em "
                          "laboratórios renomados.",
                "claim_result": {
                    "title": "<b>Covid</b>-<b>19</b>: Pesquisador da Fiocruz tira dúvidas sobre <b>testes</b> de ...",
                    "snippet": "Jan 15, 2021 <b>...</b> ... <b>falsos negativos podem</b> se dever à baixa "
                               "especificidade e baixa sensibilidade analítica do <b>teste</b>.",
                    "link": "https://portal.fiocruz.br/noticia/covid-19-testes-duvidas",
                }},
    "cv_0002": {"kind": "claim",
                "answer": "As vacinas contra a covid contêm um microchip ativado pela rede 5G",
                "factcheck": "claim"},
    "cv_0007": {"kind": "direct", "rank": 1, "link": "https://www.gov.br/anvisa/noticias/uso-emergencial",
                "factcheck": "original"},
    "cv_0009": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/auxilio-corte"},
    "cv_0010": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/auxilio-corte"},
    "cv_0011": {"kind": "direct", "rank": 1, "link": "https://portalexemplo.com.br/defesa-civil-simulacao"},
    "cv_0012": {"kind": "direct", "rank": 1, "link": "https://portalexemplo.com.br/defesa-civil-simulacao"},
    "cv_0013": {"kind": "claim", "answer": "O chá de boldo elimina o vírus do organismo em duas horas",
                "search": "empty"},
    "cv_0014": {"kind": "hard_fail"},
    "cv_0015": {"kind": "claim",
                "answer": "Os moradores da cidade enfrentaram filas muito longas nos postos de saúde do "
                          "centro durante toda a manhã desta segunda-feira para conseguir receber a "
                          "segunda dose da vacina contra a doença",
                "enforced": True},
    "cv_0016": {"kind": "direct", "rank": 1, "link": "https://twitter.com/prefeitura/status/123456",
                "second_link": "https://portalexemplo.com.br/cestas-basicas-boato"},
    "cv_0017": {"kind": "direct", "rank": 1, "link": "https://www.saude.gov.br/noticias/vacinacao-rotina"},
    "cv_0018": {"kind": "direct", "rank": 3, "link": "https://checagemaberta.com.br/mercado-boato"},
    "cv_0019": {"kind": "direct", "rank": 1, "link": "https://jornaldaregiao.com.br/leitos-uti"},
    "cv_0020": {"kind": "direct", "rank": 1, "link": "https://noticiasdodia.com.br/golpe-senha-banco"},
    "mm_0002": {"kind": "claim",
                "answer": "Pessoal, todo mundo precisa se cadastrar no conectesus para vacinar.",
                "claim_result": {
                    "title": "Obter o Certificado Nacional de <b>Vacinação</b> COVID-19",
                    "snippet": "Os dados já foram enviados, mas possui algum erro de informação. Quais os "
                               "possíveis erros: CNS duplicado no <b>cadastro</b> do SUS.O cidadão deverá "
                               "se dirigir a ...",
                    "link": "https://conectesus-paciente.saude.gov.br/certificado",
                }},
    "mm_0003": {"kind": "direct", "rank": 1, "link": "https://www.saude.gov.br/noticias/envio-doses"},
    "mm_0004": {"kind": "direct", "rank": 2, "link": "https://checagemaberta.com.br/agua-de-coco"},
    "mm_0005": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/aplicativo-desconto"},
    "mm_0006": {"kind": "direct", "rank": 1, "link": "https://noticiasdodia.com.br/supermercados-boato"},
    "mm_0007": {"kind": "direct", "rank": 1, "link": "https://portalexemplo.com.br/testes-clinicos"},
    "mm_0008": {"kind": "direct", "rank": 1, "link": "https://checagemaberta.com.br/prateleiras-foto"},
}

EXEMPLO1_RESULT = {
    "title": "<b>O novo coronavírus</b> não sobrevive em <b>encomendas enviadas</b> pelo ...",
    "snippet": "4 de mar. de 2020 <b>...</b> ... <b>coronavírus pode ser transmitido através de "
               "encomendas enviadas</b> pelo correio da <b>China</b> para outros países. A alegação, "
               "que serviu de base  ...",
    "link": "https://checagemaberta.com.br/coronavirus-encomendas-china",
}

FARMACIA_RESULT = {
    "title": "<b>Governo Temer</b> fecha <b>Farmácia Popular</b> e pretende extinguir o SUS ...",
    "snippet": "Feb 22, 2018 <b>...</b> Você <b>vai</b> deixar? Notícias &middot; ascom ... O "
               "Ministério da Saúde <b>acaba</b> de fechar as 517 <b>farmácias</b> populares "
               "mantidas pelo <b>governo</b> federal no país.",
    "link": "https://sindsaude-exemplo.org.br/governo-fecha-farmacia-popular",
}

FACTCHECKS = {
    "fake_0001": {
        "claim_text": "Temer oficializa fim do projeto Farmácia Popular",
        "claimant": "postagens em redes sociais",
        "claim_date": "2018-02-21",
        "publisher": "Lupa - UOL",
        "site": "lupa.uol.com.br",
        "rating": "Falso",
        "review_date": "2018-02-23",
        "url": "https://lupa.uol.com.br/jornalismo/2018/02/23/farmacia-popular-checagem",
    },
    "cv_0002": {
        "claim_text": "Vacinas contra a covid-19 contêm microchips ativados pela rede 5G",
        "claimant": "mensagens de WhatsApp",
        "claim_date": "2021-03-08",
        "publisher": "Aos Fatos",
        "site": "aosfatos.org",
        "rating": "Falso",
        "review_date": "2021-03-10",
        "url": "https://www.aosfatos.org/noticias/vacinas-nao-contem-microchip",
    },
    "cv_0007": {
        "claim_text": "Anvisa aprovou uso emergencial de nova vacina contra a covid-19",
        "claimant": "imprensa",
        "claim_date": "2021-06-01",
        "publisher": "Checagem Aberta",
        "site": "checagemaberta.com.br",
        "rating": "Verdadeiro",
        "review_date": "2021-06-02",
        "url": "https://checagemaberta.com.br/anvisa-uso-emergencial",
    },
}

GENERIC_RESULTS = [
    {"title": "Principais <b>notícias</b> do dia no portal",
     "snippet": "Veja as <b>notícias</b> mais lidas de hoje em política, economia e saúde.",
     "link": "https://noticiasdodia.com.br/ultimas"},
    {"title": "Boletim diário de <b>informações</b> regionais",
     "snippet": "Acompanhe o resumo com as <b>informações</b> desta edição.",
     "link": "https://jornaldaregiao.com.br/boletim"},
]


def web_item(result: dict) -> dict:
    import re
    plain = lambda s: re.sub(r"</?b>", "", s)
    return {
        "title": plain(result["title"]),
        "htmlTitle": result["title"],
        "link": result["link"],
        "snippet": plain(result["snippet"]),
        "htmlSnippet": result["snippet"],
    }


def matching_item(query: str, link: str) -> dict:
    return web_item({
        "title": f"Checagem: <b>{query}</b>",
        "snippet": "Entenda o que é verdadeiro e o que é falso na mensagem que circula nas redes.",
        "link": link,
    })


# request hash -> (kind, payload, body), in the order requests were first recorded
RECORDED: dict[str, tuple[str, dict, dict]] = {}


def save(kind: str, payload: dict, body: dict) -> None:
    """Record one response; a request recorded twice must get the same body,
    or one script would replay a body another script never checked."""
    recorded = RECORDED.setdefault(request_hash(kind, payload), (kind, payload, body))
    assert recorded[2] == body, f"{kind} request recorded with two bodies: {payload}"


def write_log() -> None:
    """Rewrite the log from RECORDED, one line per request."""
    (CASSETTES / LOG_NAME).unlink(missing_ok=True)
    for kind, payload, body in RECORDED.values():
        write_cassette(CASSETTES, kind, payload, body, CAPTURED_AT)


def save_web(query: str, items: list[dict]) -> None:
    payload = WebSearchRequest(query=query).payload()
    save(KIND_WEB, payload, {"items": items})


def save_llm(prompt: str, answer: str) -> None:
    payload = LlmRequest(prompt=prompt).payload()
    body = {"candidates": [{"content": {"parts": [{"text": answer}]}, "finishReason": "STOP"}]}
    save(KIND_LLM, payload, body)


def save_factcheck(query: str, spec: dict) -> None:
    payload = FactCheckRequest(query=query).payload()
    body = {"claims": [{
        "text": spec["claim_text"],
        "claimant": spec["claimant"],
        "claimDate": spec["claim_date"],
        "claimReview": [{
            "publisher": {"name": spec["publisher"], "site": spec["site"]},
            "url": spec["url"],
            "reviewDate": spec["review_date"],
            "textualRating": spec["rating"],
            "languageCode": "pt-BR",
        }],
    }]}
    save(KIND_FACTCHECK, payload, body)


def final_claim(text: str, answer: str) -> str:
    """The claim string enrichment will actually search for."""
    outcome = extract_claim(text, lambda prompt: answer)
    assert outcome.claim, f"scripted answer produced no claim: {answer!r}"
    return outcome.claim


def build_record_cassettes(rec: NewsItem, template) -> None:
    scenario = SCENARIOS.get(rec.id)
    if scenario is None or scenario["kind"] == "hard_fail":
        return
    query, _ = build_query(rec.text)

    if scenario["kind"] == "direct":
        rank = scenario["rank"]
        items = [web_item(GENERIC_RESULTS[i % len(GENERIC_RESULTS)]) for i in range(rank - 1)]
        items.append(matching_item(query, scenario["link"]))
        if "second_link" in scenario:
            items.append(web_item({
                "title": "Prefeitura desmente <b>boato</b> sobre distribuição",
                "snippet": "Nota oficial esclarece a mensagem que circula nos grupos.",
                "link": scenario["second_link"],
            }))
        save_web(query, items)
        results = [WebResult(rank=i + 1, title=it["htmlTitle"], link=it["link"], snippet=it["htmlSnippet"])
                   for i, it in enumerate(items)]
        scores, idx = first_match(query, results)
        assert idx == rank, f"{rec.id}: expected match at {rank}, got {idx} ({scores})"
    else:
        answer = scenario["answer"]
        claim = final_claim(rec.text, answer)
        claim_result = scenario.get("claim_result")
        claim_items = [web_item(claim_result) if claim_result
                       else matching_item(claim, "https://checagemaberta.com.br/verificacao")]
        # initial search must come back weak for the claim path to fire; a
        # claim equal to the query (mm_0002) replays the claim search's body
        if claim == query:
            initial = claim_items
        elif rec.id == "fake_0001":
            initial = [web_item(FARMACIA_RESULT)]
        else:
            initial = [web_item(GENERIC_RESULTS[0])]
        save_web(query, initial)
        results = [WebResult(rank=i + 1, title=it["htmlTitle"], link=it["link"], snippet=it["htmlSnippet"])
                   for i, it in enumerate(initial)]
        scores, idx = first_match(query, results)
        assert idx is None, f"{rec.id}: initial search matched at {idx} ({scores})"

        # cover both the raw corpus text and the validated text, so records
        # can be enriched straight from the corpus file too; dict.fromkeys
        # keeps that order, where a set's order would follow the hash seed
        for text_variant in dict.fromkeys((rec.extra.get("text_raw", rec.text), rec.text)):
            save_llm(template.render(llm_input(text_variant)), answer)
        if scenario.get("enforced"):
            assert len(claim.split()) == 20, f"{rec.id}: expected a truncated 20-word claim"
        if scenario.get("search") != "empty":
            save_web(claim, claim_items)
        if scenario.get("factcheck") == "claim":
            save_factcheck(claim, FACTCHECKS[rec.id])

    if scenario.get("factcheck") == "original":
        save_factcheck(query, FACTCHECKS[rec.id])


def verify_enrichment(validated: list[NewsItem]) -> dict:
    backend = FixtureBackend(CASSETTES)
    clock = FrozenClock()
    records = [enrich_one(item, backend, clock=clock) for item in validated]
    by_id = {r.item.id: r for r in records}

    for rec_id, scenario in SCENARIOS.items():
        rec = by_id.get(rec_id)
        if rec is None:
            continue
        kind = scenario["kind"]
        if kind == "direct":
            assert rec.match_index == scenario["rank"], (rec_id, rec.match_index)
            assert rec.claim is None
        elif kind == "claim":
            assert rec.match_index is None and rec.claim is not None, (rec_id, rec.match_index, rec.claim)
            if scenario.get("enforced"):
                assert rec.claim_enforced
            if scenario.get("search") == "empty":
                assert any(e.stage == "claim_search" and e.kind == "empty_results" for e in rec.errors), rec_id
            else:
                assert rec.claim_results, rec_id
            expected_fc = scenario.get("factcheck", "none")
            assert rec.factcheck_query_used == expected_fc, (rec_id, rec.factcheck_query_used)
        elif kind == "hard_fail":
            assert rec.match_index is None and rec.claim is None
            assert any(e.kind == "provider_failure" for e in rec.errors), rec_id
        if scenario.get("factcheck") == "original":
            assert rec.factcheck_query_used == "original", rec_id
    return funnel(records)


def build_eval_cassettes(validated: list[NewsItem]) -> int:
    """Classification responses for the test slice of the default split."""
    train, val, test = split(validated)
    as_instance = lambda item: EvalInstance(id=item.id, text=item.text, label=item.label)
    shots = select_shots([as_instance(i) for i in train], seed=0)
    answers = {"fake": "FAKE NEWS", "true": "Resposta: VERDADEIRO."}
    for n, item in enumerate(test):
        inst = as_instance(item)
        answer = "Não tenho como determinar." if n == len(test) - 1 and len(test) > 2 \
            else answers[item.label]
        save_llm(classification_prompt(inst, shots), answer)
    return len(test)


def main() -> None:
    if CASSETTES.exists():
        shutil.rmtree(CASSETTES)
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_news(FIXTURES / "corpus.jsonl", RECORDS)

    detector = TrigramDetector()
    for rec in RECORDS:
        expected_gone = rec.id in REMOVED
        lang, conf = detector.detect(rec.text)
        if rec.id in ("cv_0006", "cv_0008"):
            assert lang != "pt" and conf >= AUTO_REMOVE_CONFIDENCE, (rec.id, lang, conf)
        elif not expected_gone:
            assert lang == "pt", (rec.id, lang, conf)

    validated, report = run_validation(RECORDS, detector=detector)
    got_removed = {rid for ids in report.removed.values() for rid in ids}
    assert got_removed == REMOVED, f"unexpected removals: {got_removed ^ REMOVED}"
    assert not report.flagged_language, report.flagged_language
    kinds = sorted(item.kind for item in report.review_items)
    assert kinds == ["near_dup_conflict", "shared_url_conflict"], kinds

    template = load_template()
    for rec in validated:
        build_record_cassettes(rec, template)
    # the worked example removed as too short still gets its recorded search
    mm_0001 = next(r for r in RECORDS if r.id == "mm_0001")
    q1, k1 = build_query(mm_0001.text)
    assert k1 == "full_text"
    save_web(q1, [web_item(EXEMPLO1_RESULT)])

    write_log()
    stats = verify_enrichment(validated)
    assert stats["total"] == len(validated)
    assert stats["hard_failed"] == 1, stats["hard_failed"]
    n_eval = build_eval_cassettes(validated)
    write_log()

    n_cassettes = sum(1 for _ in read_jsonl(CASSETTES / LOG_NAME, lambda raw: raw))
    print(f"{len(RECORDS)} records -> {len(validated)} validated; "
          f"{stats['matched_direct']} direct / {stats['extraction_needed']} via claim / "
          f"{stats['hard_failed']} unmatched; {n_eval} eval instances; {n_cassettes} cassettes")


if __name__ == "__main__":
    main()
